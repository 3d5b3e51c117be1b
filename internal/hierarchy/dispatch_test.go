package hierarchy

import (
	"fmt"
	"testing"
	"time"

	"snooze/internal/scheduling"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// waveRig forms a GL and gms GMs with lcsPerGM empty LCs (8 CPU / 16 GB)
// each; every manager dispatches with a fresh policy from newPolicy.
type waveRig struct {
	*rig
	gl   *Manager
	gms  []*Manager
	gmOf map[types.NodeID]transport.Address
}

func newWaveRig(t *testing.T, seed int64, newPolicy func() scheduling.DispatchPolicy, gms, lcsPerGM int) *waveRig {
	t.Helper()
	w := &waveRig{rig: newRig(seed), gmOf: make(map[types.NodeID]transport.Address)}
	mk := func(id string) *Manager {
		cfg := DefaultManagerConfig(types.GroupManagerID(id), transport.Address("mgr:"+id))
		cfg.Dispatch = newPolicy()
		m := NewManager(w.k, w.bus, w.svc, cfg)
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	w.gl = mk("m0")
	w.settle(5 * time.Second)
	for i := 1; i <= gms; i++ {
		w.gms = append(w.gms, mk(fmt.Sprintf("m%d", i)))
	}
	w.settle(10 * time.Second)
	var lcs []*LC
	for i := 0; i < gms*lcsPerGM; i++ {
		lcs = append(lcs, w.lc(fmt.Sprintf("n%02d", i)))
	}
	w.settle(40 * time.Second) // joins, monitor reports, summaries
	perGM := make(map[transport.Address]int)
	for i, lc := range lcs {
		w.gmOf[types.NodeID(fmt.Sprintf("n%02d", i))] = lc.GM()
		perGM[lc.GM()]++
	}
	for _, gm := range w.gms {
		if perGM[gm.Addr()] != lcsPerGM {
			t.Fatalf("fixture: LCs per GM %v, want %d each", perGM, lcsPerGM)
		}
	}
	if w.gl.Role() != RoleGL {
		t.Fatalf("fixture: m0 is %v", w.gl.Role())
	}
	return w
}

func wave(n int, cpu float64) []types.VMSpec {
	vms := make([]types.VMSpec, n)
	for i := range vms {
		vms[i] = types.VMSpec{ID: types.VMID(fmt.Sprintf("w-%03d", i)), Requested: types.RV(cpu, 1024*cpu, 10, 10)}
	}
	return vms
}

// TestWaveSpreadsUnderLeastLoaded: ranking a whole wave against one snapshot
// must not herd it onto the GM that looked emptiest — each VM is charged to
// its first choice, so a load-aware policy spreads the wave the way one-VM
// submissions spread through the optimistic summary update.
func TestWaveSpreadsUnderLeastLoaded(t *testing.T) {
	w := newWaveRig(t, 41, func() scheduling.DispatchPolicy { return scheduling.LeastLoadedDispatch{} }, 4, 2)
	var placed map[types.VMID]types.NodeID
	w.gl.dispatch(wave(64, 0.5), func(p map[types.VMID]types.NodeID, _ []types.VMID) { placed = p })
	w.settle(time.Minute)
	if len(placed) != 64 {
		t.Fatalf("placed %d of 64 VMs on a half-empty fleet", len(placed))
	}
	perGM := make(map[transport.Address]int)
	for _, node := range placed {
		perGM[w.gmOf[node]]++
	}
	for _, gm := range w.gms {
		if n := perGM[gm.Addr()]; n < 14 || n > 18 {
			t.Fatalf("wave herded: VMs per GM %v, want 16±2 each", perGM)
		}
	}
}

// TestWaveOvercommit pins the dispatcher's accounting when demand exceeds
// fleet capacity: the wave places the same resource total as the same VMs
// submitted one at a time, every VM ends up in exactly one of placed/unplaced
// and done fires exactly once — also when a GM crashes with its requests in
// flight (timeout ⇒ next round) and when every PlaceRequest, hence every
// PlaceResponse, is delivered twice.
func TestWaveOvercommit(t *testing.T) {
	roundRobin := func() scheduling.DispatchPolicy { return &scheduling.RoundRobinDispatch{} }
	vms := wave(24, 2) // 48 CPU against 2 GMs x 2 LCs x 8 CPU
	total := func(placed map[types.VMID]types.NodeID) float64 { return 2 * float64(len(placed)) }

	ref := newWaveRig(t, 43, roundRobin, 2, 2)
	oneByOne := 0.0
	for _, vm := range vms {
		ref.gl.dispatch([]types.VMSpec{vm}, func(p map[types.VMID]types.NodeID, _ []types.VMID) { oneByOne += total(p) })
		ref.settle(time.Second)
	}
	if oneByOne != 32 {
		t.Fatalf("fixture: one-at-a-time placed %v CPU, fleet holds 32", oneByOne)
	}

	for _, tc := range []struct {
		name   string
		before func(w *waveRig) // runs before the wave is submitted
		during func(w *waveRig) // runs right after
	}{
		{name: "healthy"},
		{name: "gm-crash-mid-round", during: func(w *waveRig) {
			w.settle(500 * time.Microsecond) // requests sent, none delivered (1 ms latency)
			w.gms[0].Crash()
		}},
		{name: "duplicate-delivery", before: func(w *waveRig) { w.bus.SetDuplication(w.gl.Addr(), 0.999) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWaveRig(t, 43, roundRobin, 2, 2)
			if tc.before != nil {
				tc.before(w)
			}
			calls := 0
			var placed map[types.VMID]types.NodeID
			var unplaced []types.VMID
			start := w.k.Now()
			var took time.Duration
			w.gl.dispatch(vms, func(p map[types.VMID]types.NodeID, u []types.VMID) {
				calls++
				placed, unplaced, took = p, u, w.k.Now()-start
			})
			if tc.during != nil {
				tc.during(w)
			}
			w.settle(5 * time.Minute)
			if calls != 1 {
				t.Fatalf("done fired %d times", calls)
			}
			seen := make(map[types.VMID]int)
			for id := range placed {
				seen[id]++
			}
			for _, id := range unplaced {
				seen[id]++
			}
			for _, vm := range vms {
				if seen[vm.ID] != 1 {
					t.Fatalf("VM %s reported %d times (placed %d, unplaced %d)", vm.ID, seen[vm.ID], len(placed), len(unplaced))
				}
			}
			if len(seen) != len(vms) {
				t.Fatalf("reported %d VMs, submitted %d", len(seen), len(vms))
			}
			switch tc.name {
			case "healthy":
				if total(placed) != oneByOne {
					t.Fatalf("wave placed %v CPU, one at a time %v", total(placed), oneByOne)
				}
			case "gm-crash-mid-round":
				// The survivor's share lands in round 0; the crashed GM's share
				// waits out the call timeout and retries on the survivor.
				if total(placed) < 16 || took < w.gl.cfg.CallTimeout {
					t.Fatalf("placed %v CPU after %v", total(placed), took)
				}
			}
		})
	}
}
