package main

// oracle.go checks the program's outputs after a run. Placement replies are
// checked as they arrive (population.placed); what is checked here is the
// state the run leaves behind.

import (
	"context"
	"fmt"
	"time"

	"snooze/internal/types"
)

// convergePeriods is how many monitor periods GET /v1/vms may take to show
// exactly the live population once the load has stopped.
const convergePeriods = 3

// checkOracle returns one line per broken invariant.
func checkOracle(d *deployment, g *loadgen, w workloadSpec, first, last snapshot) []string {
	var bad []string
	if g.pop.misplaced > 0 {
		bad = append(bad, fmt.Sprintf("%d VMs were not on the node the API reported", g.pop.misplaced))
	}

	// Node truth: every live VM on exactly the node it was reported on, no VM
	// on two nodes, and nothing else anywhere.
	live := g.pop.snapshot()
	want := make(map[string]types.NodeID, len(live))
	for _, vm := range live {
		want[vm.id] = vm.node
	}
	onNodes := 0
	seen := make(map[types.VMID]types.NodeID)
	for _, id := range d.nodeIDs {
		for _, vm := range d.nodes[id].VMs() {
			onNodes++
			if other, dup := seen[vm.Spec.ID]; dup {
				bad = append(bad, fmt.Sprintf("VM %s is on %s and %s", vm.Spec.ID, other, id))
			}
			seen[vm.Spec.ID] = id
			if want[string(vm.Spec.ID)] != id {
				bad = append(bad, fmt.Sprintf("VM %s is on %s, expected %q", vm.Spec.ID, id, want[string(vm.Spec.ID)]))
			}
		}
	}
	if onNodes != len(live) {
		bad = append(bad, fmt.Sprintf("nodes host %d VMs, live population is %d", onNodes, len(live)))
	}

	// The API's view converges to the live set through monitoring alone.
	ctx := context.Background()
	deadline := time.Now().Add(convergePeriods*w.Monitor + time.Second)
	for {
		vms, err := d.client.ListVMs(ctx)
		diff := len(vms) - len(live)
		if err == nil && diff == 0 {
			for _, vm := range vms {
				if want[vm.ID] != types.NodeID(vm.Node) {
					diff++
				}
			}
		}
		if err == nil && diff == 0 {
			break
		}
		if time.Now().After(deadline) {
			bad = append(bad, fmt.Sprintf("GET /v1/vms did not converge to the %d live VMs within %d monitor periods (got %d, err=%v)", len(live), convergePeriods, len(vms), err))
			break
		}
		time.Sleep(w.Monitor / 10)
	}
	if nodes, err := d.client.ListNodes(ctx); err != nil || len(nodes) != d.cfg.totalLCs() {
		bad = append(bad, fmt.Sprintf("GET /v1/nodes lists %d of %d nodes (err=%v)", len(nodes), d.cfg.totalLCs(), err))
	}

	// Monitoring arrived and every report's samples reached the store.
	reports, expect := reportsBetween(d, first.rt, last.rt)
	// Each LC's reports may straddle the window's edges by one, and the LC's
	// ticker re-arms after each tick, so a period is the nominal one plus
	// timer latency: 94–99 % of the nominal count arrive on a busy machine.
	due := float64(d.cfg.totalLCs()) * (float64(last.rt-first.rt)/float64(w.Monitor) - 1)
	if float64(reports) < 0.8*due {
		bad = append(bad, fmt.Sprintf("%d monitor reports ingested, %.0f were due", reports, due))
	}
	if got := float64(last.samples - first.samples); got < 0.98*expect {
		bad = append(bad, fmt.Sprintf("telemetry store grew by %.0f samples, the reports carried %.0f", got, expect))
	}
	if rejects := d.reg.Count("gm.monitor-rejects"); rejects > 0 {
		bad = append(bad, fmt.Sprintf("%d monitor reports rejected", rejects))
	}
	return bad
}
