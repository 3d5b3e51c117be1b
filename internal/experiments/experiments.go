// Package experiments reproduces every result the paper reports. The PhD
// forum paper summarizes two evaluations textually: the Snooze system
// evaluation (Section II-F, from ref [7]: 144-node Grid'5000 cluster, up to
// 500 VMs — scalability, distributed-management overhead, fault tolerance)
// and the ACO consolidation evaluation (Section III-B, from ref [10]: ACO vs
// FFD vs CPLEX-optimal — hosts, utilization, energy, deviation). Each
// experiment here regenerates one of those results as a table; the expected
// *shape* (who wins, by roughly what factor) is documented in EXPERIMENTS.md.
//
// Every experiment takes a Scale: ScaleQuick runs in about a second for
// tests and `go test -bench`; ScaleFull matches the paper's dimensions.
package experiments

import (
	"fmt"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/consolidation"
	"snooze/internal/consolidation/online"
	"snooze/internal/faults"
	"snooze/internal/metrics"
	"snooze/internal/power"
	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// Scale selects experiment dimensions.
type Scale int

// Experiment scales.
const (
	// ScaleQuick keeps each experiment around a second of wall time.
	ScaleQuick Scale = iota
	// ScaleFull matches the paper's dimensions (144 nodes, 500 VMs, ...).
	ScaleFull
)

// Result is one reproduced table/figure.
type Result struct {
	ID    string
	Title string
	Table *metrics.Table
	Notes []string
}

// String renders the result for terminal output.
func (r Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table.String())
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// All runs every experiment in order.
func All(scale Scale) []Result {
	return []Result{
		E1SubmissionScalability(scale),
		E2ManagementOverhead(scale),
		E3FaultTolerance(scale),
		E4ACOvsFFD(scale),
		E5EnergySavings(scale),
		E6SelfHealing(scale),
		E7ACOAblation(scale),
		E9GrayFailures(scale),
		A1EstimatorAblation(scale),
		A2DispatchAblation(scale),
		F1FleetThroughput(scale),
	}
}

// ByID runs one experiment by its identifier (e.g. "e1").
func ByID(id string, scale Scale) (Result, error) {
	switch id {
	case "e1", "submission-scalability":
		return E1SubmissionScalability(scale), nil
	case "e2", "management-overhead":
		return E2ManagementOverhead(scale), nil
	case "e3", "fault-tolerance":
		return E3FaultTolerance(scale), nil
	case "e4", "aco-vs-ffd":
		return E4ACOvsFFD(scale), nil
	case "e5", "energy-savings":
		return E5EnergySavings(scale), nil
	case "e6", "self-healing":
		return E6SelfHealing(scale), nil
	case "e7", "aco-ablation":
		return E7ACOAblation(scale), nil
	case "e9", "gray-failures":
		return E9GrayFailures(scale), nil
	case "a1", "estimator-ablation":
		return A1EstimatorAblation(scale), nil
	case "a2", "dispatch-ablation":
		return A2DispatchAblation(scale), nil
	case "f1", "fleet-throughput":
		return F1FleetThroughput(scale), nil
	default:
		return Result{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

// ---------------------------------------------------------------------------
// E1: VM submission scalability (Section II-F / ref [7])
// ---------------------------------------------------------------------------

// E1SubmissionScalability measures VM submission time as the number of VMs
// and the number of LCs grow, under the sequential client the paper modelled:
// the batch is submitted one VM after another, each submission a linear probe
// at the GL. Expected shape: submission time linear in the batch size,
// near-flat in the cluster size (the hierarchy absorbs scale).
func E1SubmissionScalability(scale Scale) Result {
	type point struct{ lcs, gms, vms int }
	var sweep []point
	if scale == ScaleFull {
		sweep = []point{
			{16, 2, 100}, {64, 4, 100}, {144, 8, 100}, {512, 16, 100}, {1024, 32, 100},
			{144, 8, 50}, {144, 8, 200}, {144, 8, 350}, {144, 8, 500},
		}
	} else {
		sweep = []point{
			{16, 2, 20}, {64, 4, 20},
			{64, 4, 10}, {64, 4, 40},
		}
	}
	tb := metrics.NewTable("LCs", "GMs", "VMs", "submit-time", "per-VM")
	for _, p := range sweep {
		c := cluster.New(cluster.DefaultConfig(workload.Grid5000Topology(p.lcs, p.gms), 1000+int64(p.lcs)+int64(p.vms)))
		c.Settle(30 * time.Second)
		gen := workload.NewGenerator(int64(p.vms), nil)
		start := c.Kernel.Now()
		placed := 0
		var err error
		for _, vm := range gen.Batch(p.vms) {
			var resp protocol.SubmitResponse
			if resp, err = c.SubmitAndWait([]types.VMSpec{vm}, time.Hour); err != nil {
				break
			}
			placed += len(resp.Placed)
		}
		elapsed := c.Kernel.Now() - start
		if err != nil {
			tb.AddRow(p.lcs, p.gms, p.vms, "ERROR: "+err.Error(), "-")
			continue
		}
		tb.AddRow(p.lcs, p.gms, p.vms,
			elapsed.Round(time.Millisecond),
			(elapsed / time.Duration(max(1, placed))).Round(time.Microsecond))
	}
	return Result{
		ID:    "E1",
		Title: "VM submission time vs cluster and batch size (virtual time)",
		Table: tb,
		Notes: []string{
			"sequential client: the batch is submitted one VM at a time",
			"expected shape: linear in batch size, near-flat in LC count",
		},
	}
}

// ---------------------------------------------------------------------------
// E2: distributed VM management overhead (Section II-F)
// ---------------------------------------------------------------------------

// E2ManagementOverhead compares per-VM dispatch+placement cost between a
// centralized deployment (1 GM) and increasingly distributed ones. Expected
// shape: "negligible cost is involved in performing distributed VM
// management" — per-VM time roughly constant in the number of GMs.
func E2ManagementOverhead(scale Scale) Result {
	lcs, vms := 144, 300
	gmSweep := []int{1, 2, 4, 8, 12}
	if scale == ScaleQuick {
		lcs, vms = 32, 40
		gmSweep = []int{1, 2, 4}
	}
	tb := metrics.NewTable("GMs", "LCs", "VMs", "submit-time", "per-VM", "probe-depth(mean)")
	for _, gms := range gmSweep {
		cfg := cluster.DefaultConfig(workload.Grid5000Topology(lcs, gms), 2000+int64(gms))
		c := cluster.New(cfg)
		c.Settle(30 * time.Second)
		gen := workload.NewGenerator(7, nil)
		start := c.Kernel.Now()
		resp, err := c.SubmitAndWait(gen.Batch(vms), time.Hour)
		elapsed := c.Kernel.Now() - start
		if err != nil {
			tb.AddRow(gms, lcs, vms, "ERROR: "+err.Error(), "-", "-")
			continue
		}
		depth := c.Metrics.Summarize("gl.probe-depth").Mean
		tb.AddRow(gms, lcs, vms,
			elapsed.Round(time.Millisecond),
			(elapsed / time.Duration(max(1, len(resp.Placed)))).Round(time.Microsecond),
			depth)
	}
	return Result{
		ID:    "E2",
		Title: "Per-VM management cost: centralized (1 GM) vs distributed",
		Table: tb,
		Notes: []string{"expected shape: per-VM cost roughly flat as GMs grow"},
	}
}

// ---------------------------------------------------------------------------
// E3: fault tolerance (Section II-F)
// ---------------------------------------------------------------------------

// E3FaultTolerance runs a steady workload, kills the GL and then a GM, and
// reports VM survival and submission service before/after. Expected shape:
// running VMs untouched by management-plane failures; submissions stall at
// most for the heartbeat timeout + election time.
func E3FaultTolerance(scale Scale) Result {
	lcs, gms, vms := 64, 4, 120
	if scale == ScaleQuick {
		lcs, gms, vms = 16, 3, 24
	}
	cfg := cluster.DefaultConfig(workload.Grid5000Topology(lcs, gms), 3000)
	c := cluster.New(cfg)
	c.Settle(30 * time.Second)
	gen := workload.NewGenerator(3, nil)
	baseline := gen.Batch(vms)
	resp, err := c.SubmitAndWait(baseline, time.Hour)
	placedBefore := len(resp.Placed)
	c.Settle(15 * time.Second)
	runningBefore := countRunning(c, baseline)

	tb := metrics.NewTable("phase", "running-VMs", "placed", "submit-time", "leader")
	leaderName := func() string {
		if l := c.Leader(); l != nil {
			return string(l.ID())
		}
		return "-"
	}
	tb.AddRow("baseline", runningBefore, placedBefore, "-", leaderName())
	if err != nil {
		return Result{ID: "E3", Title: "fault tolerance", Table: tb, Notes: []string{"baseline submission failed: " + err.Error()}}
	}

	// Crash the GL; a client that keeps retrying (as the paper's CLI would)
	// is served once the EP view expires and a new GL announces itself —
	// the measured stall is the client-visible failover time.
	c.CrashLeader()
	start := c.Kernel.Now()
	resp2, err2 := submitWithRetry(c, gen.Batch(5), 2*time.Second, 10*time.Minute)
	afterGL := c.Kernel.Now() - start
	row := func(phase string, placed int, d time.Duration, err error) {
		val := d.Round(time.Millisecond).String()
		if err != nil {
			val = "ERROR: " + err.Error()
		}
		tb.AddRow(phase, c.RunningVMs(), placed, val, leaderName())
	}
	row("GL crash +submit", len(resp2.Placed), afterGL, err2)

	// Crash one GM; its LCs (and their VMs) keep running, and rejoin.
	faults.CrashGMs{N: 1}.Apply(c)
	start = c.Kernel.Now()
	resp3, err3 := submitWithRetry(c, gen.Batch(5), 2*time.Second, 10*time.Minute)
	afterGM := c.Kernel.Now() - start
	row("GM crash +submit", len(resp3.Placed), afterGM, err3)
	c.Settle(60 * time.Second) // orphaned LCs rejoin before the final audit

	running := countRunning(c, baseline)
	avail := 100 * float64(running) / float64(max(1, runningBefore))
	return Result{
		ID:    "E3",
		Title: "Fault tolerance: GL and GM crashes under a running workload",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("baseline-VM availability through both failures: %.1f%% (%d/%d still running)", avail, running, runningBefore),
			"expected shape: availability 100% (management-plane failures never touch VMs); submission stalls bounded by heartbeat timeout + election",
		},
	}
}

// countRunning counts how many of the given VMs are currently running.
func countRunning(c *cluster.Cluster, vms []types.VMSpec) int {
	n := 0
	for _, spec := range vms {
		for _, node := range c.Nodes {
			if node.HasVM(spec.ID) {
				n++
				break
			}
		}
	}
	return n
}

// submitWithRetry keeps resubmitting until the batch is served (the
// transport-level failure mode during failover) or maxSim elapses. Retrying
// is only safe while nothing was placed, which holds for unreachable-GL
// failures.
func submitWithRetry(c *cluster.Cluster, vms []types.VMSpec, retryEvery, maxSim time.Duration) (resp protocol.SubmitResponse, err error) {
	deadline := c.Kernel.Now() + maxSim
	for c.Kernel.Now() < deadline {
		resp, err = c.SubmitAndWait(vms, maxSim)
		if err == nil && len(resp.Placed) > 0 {
			return resp, nil
		}
		if err == nil && len(resp.Placed) == 0 && len(resp.Unplaced) > 0 {
			// GL reachable but no capacity routed yet (fresh leader with no
			// summaries): retry too.
			c.Settle(retryEvery)
			continue
		}
		if err != nil {
			c.Settle(retryEvery)
			continue
		}
		return resp, err
	}
	return resp, fmt.Errorf("experiments: submission not served within %v", maxSim)
}

// ---------------------------------------------------------------------------
// E4: ACO vs FFD vs optimal (Section III-B / ref [10])
// ---------------------------------------------------------------------------

// E4ACOvsFFD reproduces the consolidation comparison. Paper numbers: ACO
// conserves on average 4.7% of hosts and 4.1% of energy vs FFD, and deviates
// 1.1% from the CPLEX optimal.
func E4ACOvsFFD(scale Scale) Result {
	small := []int{10, 14, 18, 22} // exact-comparable sizes
	large := []int{50, 100, 200}
	seeds := []int64{1, 2, 3, 4, 5}
	if scale == ScaleQuick {
		small = []int{10, 14}
		large = []int{50}
		seeds = []int64{1, 2}
	}
	model := power.DefaultModel()
	tb := metrics.NewTable("n-VMs", "kind", "FFD-hosts", "ACO-hosts", "opt-hosts", "ACO-util", "FFD-util", "hosts-saved%", "energy-saved%", "dev-opt%")

	var aggHostsSaved, aggEnergySaved, aggDev []float64
	run := func(n int, kind workload.InstanceKind, withExact bool) {
		var ffdH, acoH, optH, acoU, ffdU, hostsSaved, energySaved, dev float64
		var rounds float64
		for _, seed := range seeds {
			inst := workload.NewInstance(workload.InstanceConfig{Seed: seed * 101, VMs: n, Kind: kind, Lo: 0.05, Hi: 0.45})
			p := consolidation.Problem{VMs: inst.VMs, Nodes: inst.Nodes}
			ffd, err1 := (consolidation.FFD{Key: consolidation.SortCPU}).Solve(p)
			acoCfg := consolidation.DefaultACOConfig()
			acoCfg.Seed = seed
			aco, err2 := (consolidation.ACO{Config: acoCfg}).Solve(p)
			if err1 != nil || err2 != nil {
				continue
			}
			demand := map[types.VMID]types.ResourceVector{}
			specs := map[types.NodeID]types.NodeSpec{}
			for _, vm := range p.VMs {
				demand[vm.ID] = vm.Requested
			}
			for _, nd := range p.Nodes {
				specs[nd.ID] = nd
			}
			ffdW := power.PlacementPower(model, ffd.Placement, demand, specs)
			acoW := power.PlacementPower(model, aco.Placement, demand, specs)
			opt := ffd.HostsUsed
			if withExact {
				if ex, err := (consolidation.Exact{MaxNodes: 2_000_000}).Solve(p); err == nil {
					opt = ex.HostsUsed
				}
			} else {
				opt = p.LowerBound() // report the LP bound for large instances
			}
			rounds++
			ffdH += float64(ffd.HostsUsed)
			acoH += float64(aco.HostsUsed)
			optH += float64(opt)
			acoU += consolidation.AvgHostUtilization(p, aco.Placement)
			ffdU += consolidation.AvgHostUtilization(p, ffd.Placement)
			hostsSaved += 100 * float64(ffd.HostsUsed-aco.HostsUsed) / float64(ffd.HostsUsed)
			energySaved += 100 * (ffdW - acoW) / ffdW
			dev += 100 * float64(aco.HostsUsed-opt) / float64(max(1, opt))
		}
		if rounds == 0 {
			return
		}
		f := func(v float64) float64 { return v / rounds }
		tb.AddRow(n, kind.String(), f(ffdH), f(acoH), f(optH), f(acoU), f(ffdU), f(hostsSaved), f(energySaved), f(dev))
		aggHostsSaved = append(aggHostsSaved, f(hostsSaved))
		aggEnergySaved = append(aggEnergySaved, f(energySaved))
		if withExact {
			aggDev = append(aggDev, f(dev))
		}
	}
	for _, n := range small {
		run(n, workload.UniformInstance, true)
	}
	for _, n := range large {
		run(n, workload.UniformInstance, false)
		run(n, workload.CorrelatedInstance, false)
	}
	return Result{
		ID:    "E4",
		Title: "Consolidation: ACO vs FFD vs optimal (paper: 4.7% hosts, 4.1% energy, 1.1% deviation)",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("mean hosts saved vs FFD: %.1f%% (paper: 4.7%%)", metrics.Summarize(aggHostsSaved).Mean),
			fmt.Sprintf("mean energy saved vs FFD: %.1f%% (paper: 4.1%%)", metrics.Summarize(aggEnergySaved).Mean),
			fmt.Sprintf("mean deviation from optimal: %.1f%% (paper: 1.1%%)", metrics.Summarize(aggDev).Mean),
			"dev-opt%% on large instances is vs the LP lower bound (CPLEX-infeasible sizes)",
		},
	}
}

// ---------------------------------------------------------------------------
// E5: energy savings (Section III / E5 in DESIGN.md)
// ---------------------------------------------------------------------------

// E5EnergySavings runs the same diurnal workload under three configurations
// and reports total energy. Expected shape: idle-suspend beats no power
// management; suspend + periodic ACO consolidation (the online optimizer with
// an unlimited migration budget) does at least as well, and none of the
// migrations it plans is refused by the destination.
func E5EnergySavings(scale Scale) Result {
	nodes, gms, vms := 36, 2, 90
	day := 4 * time.Hour
	if scale == ScaleQuick {
		nodes, gms, vms = 10, 1, 16
		day = time.Hour
	}
	type variant struct {
		name    string
		energy  bool
		reconf  bool
		suspend time.Duration
	}
	variants := []variant{
		{name: "no-power-mgmt"},
		{name: "idle-suspend", energy: true, suspend: 2 * time.Minute},
		{name: "suspend+consolidation", energy: true, reconf: true, suspend: 2 * time.Minute},
	}
	tb := metrics.NewTable("config", "kWh", "suspends", "wakes", "migrations", "migrations-failed", "running-VMs", "saved%")
	var baseline float64
	for _, v := range variants {
		top := workload.Grid5000Topology(nodes, gms)
		cfg := cluster.DefaultConfig(top, 5000)
		// Diurnal trace: VMs idle at night, busy at day.
		reg := workload.NewRegistry()
		for i := 0; i < vms; i++ {
			reg.Register(fmt.Sprintf("t%d", i), workload.DiurnalTrace{
				Low: 0.05, High: 0.75, MemFraction: 0.5,
				Period: day, Phase: time.Duration(i) * day / time.Duration(4*vms),
			})
		}
		cfg.Hypervisor.Traces = reg
		// Round-robin placement (the paper's load-balancing example policy)
		// spreads VMs across LCs; the consolidation variant then shows how
		// much reconfiguration can claw back. Underload relocation is
		// disabled here so the consolidation contribution is isolated —
		// moderately loaded nodes are exactly the population Section II-C
		// says reconfiguration targets. (Event-based underload relocation
		// is exercised in E3 and the cluster tests.)
		cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
		cfg.LC.Thresholds = scheduling.Thresholds{Overload: 0.95, Underload: 0}
		cfg.Manager.EnergyEnabled = v.energy
		cfg.Manager.IdleThreshold = v.suspend
		if v.reconf {
			// Periodic reconfiguration: every round executes its whole plan.
			cfg.Manager.Consolidation = online.Config{Enabled: true, Period: day / 8, MigrationBudget: -1}
		}
		c := cluster.New(cfg)
		c.Settle(30 * time.Second)
		gen := workload.NewGenerator(11, []workload.VMClass{
			{Name: "std", Capacity: types.RV(2, 4096, 50, 50), Weight: 1},
		})
		batch := gen.Batch(vms)
		for i := range batch {
			batch[i].TraceID = fmt.Sprintf("t%d", i)
		}
		if _, err := c.SubmitAndWait(batch, time.Hour); err != nil {
			tb.AddRow(v.name, "ERROR: "+err.Error(), "-", "-", "-", "-", "-", "-")
			continue
		}
		c.Settle(day)
		kwh := c.TotalEnergyJoules() / 3.6e6
		saved := 0.0
		if v.name == "no-power-mgmt" {
			baseline = kwh
		} else if baseline > 0 {
			saved = 100 * (baseline - kwh) / baseline
		}
		tb.AddRow(v.name, kwh,
			c.Metrics.Count("gm.suspends"), c.Metrics.Count("gm.wakes"),
			c.Metrics.Count("gm.migrations-ok"), c.Metrics.Count("gm.migrations-failed"), c.RunningVMs(), saved)
	}
	return Result{
		ID:    "E5",
		Title: "Cluster energy over a diurnal day: power management variants",
		Table: tb,
		Notes: []string{
			"expected shape: suspend+consolidation strictly below the others — with load spread",
			"across moderately loaded nodes, idle times (and savings) only appear once",
			"consolidation packs the VMs (the paper's 'to favor idle times' thesis, Section III)",
		},
	}
}

// ---------------------------------------------------------------------------
// E6: self-healing latency (Section II-E)
// ---------------------------------------------------------------------------

// E6SelfHealing measures time-to-heal after a GL crash as the hierarchy
// grows. Expected shape: dominated by the election session TTL + heartbeat
// periods; near-constant in cluster size.
func E6SelfHealing(scale Scale) Result {
	sweep := [][2]int{{16, 2}, {64, 4}, {144, 8}}
	if scale == ScaleQuick {
		sweep = [][2]int{{8, 2}, {16, 2}}
	}
	tb := metrics.NewTable("LCs", "GMs", "heal-time", "lc-rejoins")
	for _, p := range sweep {
		cfg := cluster.DefaultConfig(workload.Grid5000Topology(p[0], p[1]), 6000+int64(p[0]))
		c := cluster.New(cfg)
		c.Settle(30 * time.Second)
		before := totalRejoins(c)
		heal, err := faults.HealLatency(c, 10*time.Minute)
		if err != nil {
			tb.AddRow(p[0], p[1], "ERROR: "+err.Error(), "-")
			continue
		}
		tb.AddRow(p[0], p[1], heal.Round(time.Millisecond), totalRejoins(c)-before)
	}
	return Result{
		ID:    "E6",
		Title: "Self-healing: time from GL crash to restored hierarchy",
		Table: tb,
		Notes: []string{"expected shape: near-constant in cluster size (TTL + heartbeat dominated)"},
	}
}

func totalRejoins(c *cluster.Cluster) uint64 {
	var n uint64
	for _, lc := range c.LCs {
		n += lc.Rejoins()
	}
	return n
}

// ---------------------------------------------------------------------------
// E7: ACO parameter ablation (ref [10] solution-quality figures)
// ---------------------------------------------------------------------------

// E7ACOAblation sweeps ants × cycles on a fixed instance. Expected shape:
// quality improves with more ants/cycles and saturates.
func E7ACOAblation(scale Scale) Result {
	n := 100
	betas := []float64{0, 1, 2, 4, 6}
	ants := []int{2, 8, 16}
	cycles := []int{2, 10, 30}
	if scale == ScaleQuick {
		n = 40
		betas = []float64{1, 4}
		ants = []int{2, 8}
		cycles = []int{2, 10}
	}
	inst := workload.NewInstance(workload.InstanceConfig{Seed: 77, VMs: n, Kind: workload.UniformInstance, Lo: 0.05, Hi: 0.45})
	p := consolidation.Problem{VMs: inst.VMs, Nodes: inst.Nodes}
	ffd, _ := (consolidation.FFD{Key: consolidation.SortCPU}).Solve(p)
	tb := metrics.NewTable("beta", "ants", "cycles", "hosts", "vs-FFD", "util")
	for _, b := range betas {
		for _, a := range ants {
			for _, cy := range cycles {
				cfg := consolidation.DefaultACOConfig()
				cfg.Beta, cfg.Ants, cfg.Cycles, cfg.Seed = b, a, cy, 9
				r, err := (consolidation.ACO{Config: cfg}).Solve(p)
				if err != nil {
					tb.AddRow(b, a, cy, "ERR", "-", "-")
					continue
				}
				tb.AddRow(b, a, cy, r.HostsUsed, r.HostsUsed-ffd.HostsUsed,
					consolidation.AvgHostUtilization(p, r.Placement))
			}
		}
	}
	return Result{
		ID:    "E7",
		Title: fmt.Sprintf("ACO ablation on %d VMs (FFD baseline: %d hosts)", n, ffd.HostsUsed),
		Table: tb,
		Notes: []string{
			"expected shape: quality improves (hosts drop) as beta grows and with more ants x cycles, then saturates",
			"beta=0 disables the utilization heuristic: pheromone alone packs poorly",
		},
	}
}
