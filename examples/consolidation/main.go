// Consolidation: the paper's Section III-B evaluation in two acts. Act one
// is the one-shot algorithm comparison — ACO vs First-Fit Decreasing vs the
// exact optimum on a generated instance, including the host savings. Act two
// runs consolidation the way Snooze actually uses it: the continuous online
// optimizer (internal/consolidation/online) packing a live, churning cluster
// a few budgeted migrations per round, with the packing converging round by
// round.
package main

import (
	"fmt"
	"log"
	"time"

	"snooze"
	"snooze/internal/consolidation/online"
	"snooze/internal/scheduling"
	"snooze/internal/telemetry"
	"snooze/internal/workload"
)

func oneShot() {
	inst := snooze.NewInstance(snooze.InstanceConfig{Seed: 3, VMs: 18})
	p := snooze.Problem{VMs: inst.VMs, Nodes: inst.Nodes}
	fmt.Printf("instance: %d VMs on up to %d hosts (lower bound: %d)\n\n",
		len(p.VMs), len(p.Nodes), p.LowerBound())

	ffd, err := snooze.SolveFFD(p)
	if err != nil {
		log.Fatal(err)
	}
	aco, err := snooze.SolveACO(p, snooze.DefaultACOConfig())
	if err != nil {
		log.Fatal(err)
	}
	opt, err := snooze.SolveOptimal(p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("FFD (CPU presort): %d hosts\n", ffd.HostsUsed)
	fmt.Printf("ACO:               %d hosts (cycles run: %d)\n", aco.HostsUsed, aco.Cycles)
	fmt.Printf("optimal (B&B):     %d hosts (proved: %v)\n\n", opt.HostsUsed, opt.Optimal)

	saved := 100 * float64(ffd.HostsUsed-aco.HostsUsed) / float64(ffd.HostsUsed)
	dev := 100 * float64(aco.HostsUsed-opt.HostsUsed) / float64(opt.HostsUsed)
	fmt.Printf("ACO saves %.1f%% of hosts vs FFD and deviates %.1f%% from optimal\n", saved, dev)
	fmt.Println("(paper, Section III-B: 4.7% hosts conserved on average, 1.1% deviation)")
}

func occupied(c *snooze.Cluster) int {
	n := 0
	for _, node := range c.Nodes {
		if len(node.Status().VMs) > 0 {
			n++
		}
	}
	return n
}

func onlineRun() {
	const vms = 10
	top := snooze.Grid5000Topology(vms, 1)
	cfg := snooze.DefaultClusterConfig(top, 7)

	// Every VM's demand oscillates between 80% and 95% of its reservation
	// with a per-VM phase shift: the churn re-prices the packing problem
	// every round without invalidating it.
	reg := workload.NewRegistry()
	for i := 0; i < vms; i++ {
		reg.Register(fmt.Sprintf("churn%d", i), workload.DiurnalTrace{
			Low: 0.8, High: 0.95, MemFraction: 0.7,
			Period: 30 * time.Minute,
			Phase:  time.Duration(i) * 3 * time.Minute,
		})
	}
	cfg.Hypervisor.Traces = reg

	// Round-robin placement spreads the VMs (the anti-consolidation
	// baseline); the online optimizer then packs them two migrations per
	// round, planning against the p95 of each VM's windowed demand.
	cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: 0.99, Underload: 0, Repeat: 15 * time.Second}
	cfg.Manager.Consolidation = online.Config{
		Enabled:         true,
		Period:          2 * time.Minute,
		MigrationBudget: 2,
		Colonies:        4,
	}

	c := snooze.NewCluster(cfg)
	c.Settle(30 * time.Second)
	var batch []snooze.VMSpec
	for i := 0; i < vms; i++ {
		batch = append(batch, snooze.VMSpec{
			ID:        snooze.VMID(fmt.Sprintf("vm-%02d", i)),
			Requested: snooze.RV(2, 4096, 10, 10),
			TraceID:   fmt.Sprintf("churn%d", i),
		})
	}
	if _, err := c.SubmitAndWait(batch, time.Hour); err != nil {
		log.Fatal(err)
	}
	c.Settle(10 * time.Second)
	floor := c.Telemetry.Journal().LastSeq()
	before := occupied(c)
	fmt.Printf("spread: %d VMs across %d nodes (packing ratio %.1f VMs/host)\n\n",
		vms, before, float64(vms)/float64(before))

	c.Settle(16 * time.Minute) // several budgeted rounds

	for _, ev := range c.Telemetry.Journal().Replay(floor+1, 0) {
		if ev.Type != telemetry.EventConsolidationRound {
			continue
		}
		fmt.Printf("  round %2s @%-5v hosts %s -> %s  (planned %s, executed %s, failed %s, cancelled %s)\n",
			ev.Attrs.Get("round"), ev.At.Truncate(time.Second),
			ev.Attrs.Get("hostsBefore"), ev.Attrs.Get("hostsAfter"),
			ev.Attrs.Get("planned"), ev.Attrs.Get("executed"), ev.Attrs.Get("failed"), ev.Attrs.Get("cancelled"))
	}
	after := occupied(c)
	fmt.Printf("\npacked: %d VMs across %d nodes (packing ratio %.1f VMs/host)\n",
		vms, after, float64(vms)/float64(after))
	fmt.Printf("rounds %d, migrations %d, cancels %d — budget kept every round\n",
		c.Metrics.Count("gm.consolidation-rounds"),
		c.Metrics.Count("gm.consolidation-migrations"),
		c.Metrics.Count("gm.consolidation-cancels"))
}

func main() {
	fmt.Println("== one-shot: ACO vs FFD vs optimal ==")
	oneShot()
	fmt.Println()
	fmt.Println("== online: continuous consolidation under churn ==")
	onlineRun()
}
