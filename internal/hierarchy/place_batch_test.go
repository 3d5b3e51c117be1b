package hierarchy

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/types"
)

// placedOnFreshGM builds a GL, one GM running the named placement policy and
// eight empty LCs, then sends the GM the given PlaceRequests at one instant.
// It returns the VM→node outcome, the GM's reservation per LC once every
// request was handled, and the GM's policy instance. The simulation is
// deterministic per seed, so two calls differ only in how the VMs were split
// into requests.
func placedOnFreshGM(t *testing.T, policy string, requests [][]types.VMSpec) (map[types.VMID]types.NodeID, map[types.NodeID]types.ResourceVector, scheduling.PlacementPolicy) {
	t.Helper()
	r := newRig(57)
	r.manager("m0") // becomes GL
	r.settle(5 * time.Second)
	cfg := DefaultManagerConfig("m1", "mgr:m1")
	p, err := scheduling.NewPlacementPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement = p
	gm := NewManager(r.k, r.bus, r.svc, cfg)
	if err := gm.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r.lc(fmt.Sprintf("n%d", i))
	}
	r.settle(30 * time.Second)
	if active, _ := gm.LCCount(); gm.Role() != RoleGM || active != 8 {
		t.Fatalf("fixture: m1 is %v with %d active LCs, want GM with 8", gm.Role(), active)
	}

	outcome := make(map[types.VMID]types.NodeID)
	for _, vms := range requests {
		r.bus.Call("test", gm.Addr(), protocol.KindPlace, protocol.PlaceRequest{VMs: vms}, time.Second,
			func(reply any, err error) {
				resp, ok := reply.(protocol.PlaceResponse)
				if err != nil || !ok {
					t.Errorf("place: %v %T", err, reply)
					return
				}
				for id, node := range resp.Placed {
					outcome[id] = node
				}
				for _, id := range resp.Unplaced {
					outcome[id] = ""
				}
			})
	}
	// One bus latency delivers every request; the StartVM commands they issue
	// are still in flight, so the reservations are the GM's own.
	r.settle(1500 * time.Microsecond)
	reserved := make(map[types.NodeID]types.ResourceVector)
	gm.mu.Lock()
	for id, lc := range gm.gm.lcs {
		reserved[id] = lc.status.Reserved
	}
	gm.mu.Unlock()
	r.settle(100 * time.Millisecond)
	return outcome, reserved, gm.cfg.Placement
}

// TestBatchPlacementMatchesSequential pins the batch placement path: for
// every registered placement policy, one 64-VM PlaceRequest places each VM
// where 64 one-VM requests would, leaves the same reservations on the LCs and
// the same round-robin cursor. A batch prices every VM against one view build
// charged with the batch's earlier reservations; the one-VM requests rebuild
// the views for each VM. The VMs ask for 80 of the fleet's 64 CPUs, so the
// batch also crosses VMs that fit nowhere.
func TestBatchPlacementMatchesSequential(t *testing.T) {
	vms := make([]types.VMSpec, 64)
	for i := range vms {
		cpu := 0.5 * float64(1+i%4)
		vms[i] = types.VMSpec{ID: types.VMID(fmt.Sprintf("b-%02d", i)), Requested: types.RV(cpu, 1024*cpu, 10, 10)}
	}
	one := make([][]types.VMSpec, len(vms))
	for i := range vms {
		one[i] = vms[i : i+1]
	}
	for _, policy := range []string{"first-fit", "best-fit", "worst-fit", "round-robin", "percentile-fit"} {
		t.Run(policy, func(t *testing.T) {
			batchOut, batchRes, batchPolicy := placedOnFreshGM(t, policy, [][]types.VMSpec{vms})
			seqOut, seqRes, seqPolicy := placedOnFreshGM(t, policy, one)
			if len(batchOut) != len(vms) || len(seqOut) != len(vms) {
				t.Fatalf("outcomes: batch %d, one-VM %d, want %d each", len(batchOut), len(seqOut), len(vms))
			}
			placed := 0
			for _, vm := range vms {
				if batchOut[vm.ID] != seqOut[vm.ID] {
					t.Fatalf("%s: batch placed it on %q, one-VM requests on %q", vm.ID, batchOut[vm.ID], seqOut[vm.ID])
				}
				if batchOut[vm.ID] != "" {
					placed++
				}
			}
			if placed == 0 || placed == len(vms) {
				t.Fatalf("fixture: %d of %d VMs placed, want some but not all", placed, len(vms))
			}
			if !reflect.DeepEqual(batchRes, seqRes) {
				t.Fatalf("LC reservations: batch %v, one-VM %v", batchRes, seqRes)
			}
			if policy == "round-robin" {
				cursor := func(p scheduling.PlacementPolicy) int64 { return reflect.ValueOf(p).Elem().FieldByName("next").Int() }
				if b, s := cursor(batchPolicy), cursor(seqPolicy); b != s {
					t.Fatalf("round-robin cursor: batch %d, one-VM %d", b, s)
				}
			}
		})
	}
}
