// Benchmarks regenerating every table/figure of the paper's evaluation.
// Each BenchmarkE* target drives the corresponding experiment from
// internal/experiments at quick scale (run `cmd/snoozesim -scale full` for
// paper-scale tables); the Benchmark{ACO,FFD,Exact,...} targets measure the
// core algorithms and substrates themselves.
//
//	go test -bench=. -benchmem
package snooze

import (
	"testing"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/consolidation"
	"snooze/internal/consolidation/online"
	"snooze/internal/coord"
	"snooze/internal/election"
	"snooze/internal/experiments"
	"snooze/internal/simkernel"
	"snooze/internal/transport"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// ---------------------------------------------------------------------------
// One bench per reproduced experiment (E1–E7).
// ---------------------------------------------------------------------------

// skipInShort keeps `go test -short -bench=.` fast (CI): the heavy targets
// — whole experiments and paper-scale cluster drives — are skipped, while
// the micro-benchmarks still run. Full runs stay `go test -bench=.`.
func skipInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("heavy benchmark: skipped in -short mode")
	}
}

func benchExperiment(b *testing.B, run func(experiments.Scale) experiments.Result) {
	skipInShort(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := run(experiments.ScaleQuick)
		if r.Table == nil {
			b.Fatal("experiment produced no table")
		}
	}
}

// BenchmarkE1SubmissionScalability regenerates E1: VM submission time vs
// cluster and batch size (ref [7] scalability figures).
func BenchmarkE1SubmissionScalability(b *testing.B) {
	benchExperiment(b, experiments.E1SubmissionScalability)
}

// BenchmarkE2ManagementOverhead regenerates E2: centralized vs distributed
// per-VM management cost (Section II-F).
func BenchmarkE2ManagementOverhead(b *testing.B) {
	benchExperiment(b, experiments.E2ManagementOverhead)
}

// BenchmarkE3FaultTolerance regenerates E3: GL/GM crash availability and
// submission stalls (Section II-F).
func BenchmarkE3FaultTolerance(b *testing.B) {
	benchExperiment(b, experiments.E3FaultTolerance)
}

// BenchmarkE4ACOvsFFD regenerates E4: the consolidation comparison table
// (Section III-B: hosts, utilization, energy, deviation from optimal).
func BenchmarkE4ACOvsFFD(b *testing.B) {
	benchExperiment(b, experiments.E4ACOvsFFD)
}

// BenchmarkE5EnergySavings regenerates E5: diurnal-day energy under the
// power-management variants (Section III).
func BenchmarkE5EnergySavings(b *testing.B) {
	benchExperiment(b, experiments.E5EnergySavings)
}

// BenchmarkE6SelfHealing regenerates E6: time-to-heal after a GL crash
// (Section II-E).
func BenchmarkE6SelfHealing(b *testing.B) {
	benchExperiment(b, experiments.E6SelfHealing)
}

// BenchmarkE7ACOAblation regenerates E7: ACO solution quality vs its
// parameters (ref [10] quality figures).
func BenchmarkE7ACOAblation(b *testing.B) {
	benchExperiment(b, experiments.E7ACOAblation)
}

// BenchmarkA1EstimatorAblation regenerates A1: the demand-estimator design
// choice called out in DESIGN.md §5.
func BenchmarkA1EstimatorAblation(b *testing.B) {
	benchExperiment(b, experiments.A1EstimatorAblation)
}

// BenchmarkA2DispatchAblation regenerates A2: the GL dispatch-policy design
// choice called out in DESIGN.md §5.
func BenchmarkA2DispatchAblation(b *testing.B) {
	benchExperiment(b, experiments.A2DispatchAblation)
}

// ---------------------------------------------------------------------------
// Fleet-scale scheduling throughput (README "Fleet scale"; CI-gated via
// BENCH_telemetry.json).
// ---------------------------------------------------------------------------

// BenchmarkPlacementsPerSecond measures end-to-end scheduling throughput of
// the GL→GM→LC hierarchy: waves of VM submissions against settled 512-LC
// fleets, timed wall-clock. Each wave is one submission, which the GL sends
// to the GMs in multi-VM placement requests.
func BenchmarkPlacementsPerSecond(b *testing.B) {
	skipInShort(b)
	const lcs, gms, wave = 512, 32, 256
	b.ReportAllocs()
	placed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cluster.New(cluster.DefaultConfig(workload.Grid5000Topology(lcs, gms), int64(1300+i)))
		c.Settle(30 * time.Second)
		vms := workload.NewGenerator(int64(i), nil).Batch(wave)
		b.StartTimer()
		resp, err := c.SubmitAndWait(vms, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Placed) == 0 {
			b.Fatal("nothing placed")
		}
		placed += len(resp.Placed)
	}
	b.ReportMetric(float64(placed)/b.Elapsed().Seconds(), "placements/s")
}

// BenchmarkFleetConsolidationScan measures the wall cost of running the
// consolidation optimizer over a populated fleet behind its unchanged-problem
// skip. The round period deliberately outpaces monitor ingestion: between
// report bursts nothing moves, so a round's snapshot equals the last solved
// one and the optimizer skips it (skips/simsec, of 64 ticks per simulated
// second over 16 GMs). The rounds that are not skipped pay in full —
// snapshot, problem build, four-colony ACO solve and the few migrations the
// default budget lets through. A run that skips nothing fails: without the
// skip every tick solves, and the benchmark would time a different path.
func BenchmarkFleetConsolidationScan(b *testing.B) {
	skipInShort(b)
	cfg := cluster.DefaultConfig(workload.Grid5000Topology(256, 16), 77)
	cfg.Manager.Consolidation = online.Config{Enabled: true, Period: 250 * time.Millisecond}
	c := cluster.New(cfg)
	c.Settle(30 * time.Second)
	if _, err := c.SubmitAndWait(workload.NewGenerator(7, nil).Batch(512), time.Hour); err != nil {
		b.Fatal(err)
	}
	c.Settle(time.Minute)
	const skipped = "gm.consolidation-skips-unchanged"
	skips0 := c.Metrics.Count(skipped)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Settle(10 * time.Second)
	}
	b.StopTimer()
	simSecs := float64(b.N) * 10
	skips := float64(c.Metrics.Count(skipped)-skips0) / simSecs
	if skips == 0 {
		b.Fatal("no consolidation round was skipped: the unchanged-problem skip is broken")
	}
	b.ReportMetric(skips, "skips/simsec")
}

// ---------------------------------------------------------------------------
// Core algorithm micro-benchmarks.
// ---------------------------------------------------------------------------

func benchProblem(n int) consolidation.Problem {
	inst := workload.NewInstance(workload.InstanceConfig{Seed: 1, VMs: n, Kind: workload.CorrelatedInstance, Lo: 0.05, Hi: 0.45})
	return consolidation.Problem{VMs: inst.VMs, Nodes: inst.Nodes}
}

// BenchmarkACOSolve50/200 measure the consolidation algorithm itself.
func BenchmarkACOSolve50(b *testing.B)  { benchACO(b, 50) }
func BenchmarkACOSolve200(b *testing.B) { benchACO(b, 200) }

func benchACO(b *testing.B, n int) {
	if n >= 200 {
		skipInShort(b)
	}
	p := benchProblem(n)
	cfg := consolidation.DefaultACOConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (consolidation.ACO{Config: cfg}).Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFDSolve200 measures the baseline heuristic.
func BenchmarkFFDSolve200(b *testing.B) {
	p := benchProblem(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (consolidation.FFD{Key: consolidation.SortCPU}).Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSolve14 measures the branch-and-bound solver at the
// CPLEX-comparable instance size.
func BenchmarkExactSolve14(b *testing.B) {
	p := benchProblem(14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (consolidation.Exact{}).Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkKernelEvents measures discrete-event throughput of the
// simulation kernel.
func BenchmarkKernelEvents(b *testing.B) {
	b.ReportAllocs()
	k := simkernel.New(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Duration(i%1000)*time.Microsecond, fn)
		k.Step()
	}
}

// BenchmarkBusRoundTrip measures one request/response over the in-process
// transport (the control-plane hop cost in simulations).
func BenchmarkBusRoundTrip(b *testing.B) {
	k := simkernel.New(1)
	bus := transport.NewBus(k, transport.Config{Latency: time.Microsecond})
	bus.Register("server", func(req *transport.Request) { req.Respond(req.Payload) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		bus.Call("client", "server", "echo", i, time.Second, func(any, error) { done = true })
		for !done {
			k.Step()
		}
	}
}

// BenchmarkElectionFailover measures a full leader failover round (session
// expiry → successor promotion) in virtual time processing cost.
func BenchmarkElectionFailover(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := simkernel.New(int64(i))
		svc := coord.NewService(k)
		c1 := election.NewCandidate(svc, k, election.Config{Base: "/el", ID: "a", SessionTTL: time.Second})
		c2 := election.NewCandidate(svc, k, election.Config{Base: "/el", ID: "b", SessionTTL: time.Second})
		if err := c1.Join(); err != nil {
			b.Fatal(err)
		}
		k.Run(k.Now() + 2*time.Second)
		if err := c2.Join(); err != nil {
			b.Fatal(err)
		}
		k.Run(k.Now() + 2*time.Second)
		c1.Resign()
		k.Run(k.Now() + 5*time.Second)
		if st, _ := c2.State(); st != election.StateLeader {
			b.Fatal("failover did not complete")
		}
	}
}

// BenchmarkClusterFormation144 measures building + settling the paper's
// 144-node topology.
func BenchmarkClusterFormation144(b *testing.B) {
	skipInShort(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cluster.New(cluster.DefaultConfig(workload.Grid5000Topology(144, 12), int64(i)))
		c.Settle(30 * time.Second)
		if c.Leader() == nil {
			b.Fatal("no leader")
		}
	}
}

// BenchmarkSubmission500VMs measures the paper-scale submission (500 VMs on
// 144 nodes) end to end in the simulator.
func BenchmarkSubmission500VMs(b *testing.B) {
	skipInShort(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cluster.New(cluster.DefaultConfig(workload.Grid5000Topology(144, 12), int64(i)))
		c.Settle(30 * time.Second)
		gen := workload.NewGenerator(int64(i), nil)
		resp, err := c.SubmitAndWait(gen.Batch(500), time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Placed) == 0 {
			b.Fatal("nothing placed")
		}
	}
}

// BenchmarkHypervisorUsage measures the monitored-usage computation that
// every LC performs on each monitoring tick.
func BenchmarkHypervisorUsage(b *testing.B) {
	k := simkernel.New(1)
	c := cluster.New(cluster.DefaultConfig(workload.Grid5000Topology(1, 1), 1))
	_ = k
	node := c.Nodes["lc-0000"]
	for i := 0; i < 8; i++ {
		spec := types.VMSpec{ID: types.VMID(string(rune('a' + i))), Requested: types.RV(1, 1024, 10, 10)}
		if err := node.StartVM(spec); err != nil {
			b.Fatal(err)
		}
	}
	c.Settle(10 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = node.Usage()
	}
}
