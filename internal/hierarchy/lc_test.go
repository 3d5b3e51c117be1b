package hierarchy

import (
	"fmt"
	"testing"

	"snooze/internal/protocol"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// lcTickAllocs bounds the allocations of one monitor period of an LC hosting
// 16 VMs on the sim kernel, the report's delivery included: the report's two
// slices, its box, the bus's delivery closure, request and event, and the
// ticker's next event.
const lcTickAllocs = 7

// TestLCTickAllocs pins what one LC costs per monitor period, and checks
// that each period sends one report listing the VMs in one order.
func TestLCTickAllocs(t *testing.T) {
	r := newRig(1)
	lc := r.lc("n1")
	for i := 0; i < 16; i++ {
		if err := r.nodes["n1"].StartVM(types.VMSpec{ID: types.VMID(fmt.Sprintf("vm%02d", i)), Requested: types.RV(0.25, 256, 1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	const gm = transport.Address("mgr:sink")
	reports := 0
	r.bus.Register(gm, func(req *transport.Request) {
		rep := req.Payload.(protocol.MonitorReport)
		if len(rep.VMs) != 16 || len(rep.Status.VMs) != 16 {
			t.Fatalf("report lists %d and %d VMs, want 16", len(rep.Status.VMs), len(rep.VMs))
		}
		for i, vm := range rep.VMs {
			if rep.Status.VMs[i] != vm.Spec.ID {
				t.Fatalf("report position %d: %q and %q", i, rep.Status.VMs[i], vm.Spec.ID)
			}
		}
		reports++
	})
	lc.mu.Lock()
	lc.gmAddr, lc.gmID = gm, "sink"
	lc.mu.Unlock()
	period := lc.cfg.MonitorPeriod
	beat := func() { // keep the GM alive in the LC's eyes
		lc.mu.Lock()
		lc.lastGMBeat = r.k.Now()
		lc.mu.Unlock()
	}
	r.settle(period / 2) // each settle below holds one tick and its delivery
	for i := 0; i < 4; i++ {
		beat()
		r.settle(period)
	}
	allocs := testing.AllocsPerRun(50, func() {
		beat()
		r.settle(period)
	})
	if reports != 4+51 {
		t.Fatalf("%d reports in %d periods", reports, 4+51)
	}
	if allocs > lcTickAllocs {
		t.Fatalf("one monitor period allocates %v times, want <= %d", allocs, lcTickAllocs)
	}
	t.Logf("one monitor period allocates %v times", allocs)
}
