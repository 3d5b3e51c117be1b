package experiments

import (
	"fmt"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/metrics"
	"snooze/internal/resource"
	"snooze/internal/scheduling"
	"snooze/internal/telemetry"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// This file holds the design-choice ablations DESIGN.md §5 calls out (demand
// estimator, dispatch policy).

// A1EstimatorAblation sweeps the GM's demand estimator under a bursty
// workload and reports relocation activity — the estimator choice trades
// responsiveness (last-value chases every spike) against stability
// (p95/max over-provision and stay quiet).
func A1EstimatorAblation(scale Scale) Result {
	// A tight cluster (~80% reserved) makes the receiver-safety check the
	// bottleneck, which is exactly where the estimator choice matters.
	nodes, gms, vms := 24, 2, 80
	horizon := 30 * time.Minute
	if scale == ScaleQuick {
		nodes, gms, vms = 6, 1, 20
		horizon = 10 * time.Minute
	}
	ests := []resource.Estimator{
		resource.LastValue{},
		resource.MovingAverage{},
		resource.EWMA{Alpha: 0.5},
		resource.Percentile{P: 95},
		resource.MaxWindow{},
	}
	tb := metrics.NewTable("estimator", "overload-events", "relocations", "migrations-ok", "running-VMs")
	for _, est := range ests {
		top := workload.Grid5000Topology(nodes, gms)
		cfg := cluster.DefaultConfig(top, 4100)
		reg := workload.NewRegistry()
		for i := 0; i < vms; i++ {
			reg.Register(fmt.Sprintf("b%d", i), workload.BurstyTrace{
				Seed: int64(i), Baseline: 0.3, BurstTo: 1.0, BurstProb: 0.4,
				Slot: 2 * time.Minute, MemBase: 0.4,
			})
		}
		cfg.Hypervisor.Traces = reg
		// First-fit packs ~4 VMs per node; a 75% threshold makes multi-VM
		// burst coincidences overload a node a few times per horizon. The
		// GM relocation policies share the detector's thresholds (the target
		// the moves must restore).
		th := scheduling.Thresholds{Overload: 0.75, Underload: 0.1}
		cfg.Hub.Thresholds = telemetry.Thresholds{Overload: th.Overload, Underload: th.Underload, Repeat: 15 * time.Second}
		cfg.Manager.Overload = scheduling.OverloadRelocation{Thresholds: th}
		cfg.Manager.Underload = scheduling.UnderloadRelocation{Thresholds: th}
		cfg.Manager.Estimator = est
		c := cluster.New(cfg)
		c.Settle(30 * time.Second)
		gen := workload.NewGenerator(4, []workload.VMClass{
			{Name: "std", Capacity: topNodeFraction(top, 0.25), Weight: 1},
		})
		batch := gen.Batch(vms)
		for i := range batch {
			batch[i].TraceID = fmt.Sprintf("b%d", i)
		}
		if _, err := c.SubmitAndWait(batch, time.Hour); err != nil {
			tb.AddRow(est.Name(), "ERROR: "+err.Error(), "-", "-", "-")
			continue
		}
		c.Settle(horizon)
		tb.AddRow(est.Name(),
			c.Metrics.Count("gm.overload-events"),
			c.Metrics.Count("gm.relocations"),
			c.Metrics.Count("gm.migrations-ok"),
			c.RunningVMs())
	}
	return Result{
		ID:    "A1",
		Title: "Ablation: GM demand estimator under bursty load",
		Table: tb,
		Notes: []string{
			"expected shape: the estimator visibly shifts relocation volume; smoothed",
			"estimators judge receivers by sustained demand while last-value chases the",
			"instantaneous sample — the feedback between moves and later anomalies",
			"dominates, so no choice is universally quieter (hence the ablation)",
		},
	}
}

func topNodeFraction(top workload.Topology, f float64) types.ResourceVector {
	return top.Nodes[0].Capacity.Scale(f)
}

// A2DispatchAblation compares the GL dispatch policies on placement balance
// and probe depth.
func A2DispatchAblation(scale Scale) Result {
	nodes, gms, vms := 48, 4, 100
	if scale == ScaleQuick {
		nodes, gms, vms = 16, 2, 30
	}
	policies := []func() scheduling.DispatchPolicy{
		func() scheduling.DispatchPolicy { return &scheduling.RoundRobinDispatch{} },
		func() scheduling.DispatchPolicy { return scheduling.LeastLoadedDispatch{} },
		func() scheduling.DispatchPolicy { return scheduling.MostLoadedDispatch{} },
	}
	tb := metrics.NewTable("dispatch", "placed", "probe-depth(mean)", "node-util-stddev", "occupied-nodes")
	for _, mk := range policies {
		pol := mk()
		cfg := cluster.DefaultConfig(workload.Grid5000Topology(nodes, gms), 4200)
		cfg.Manager.Dispatch = pol
		c := cluster.New(cfg)
		c.Settle(30 * time.Second)
		gen := workload.NewGenerator(6, nil)
		resp, err := c.SubmitAndWait(gen.Batch(vms), time.Hour)
		if err != nil {
			tb.AddRow(pol.Name(), "ERROR: "+err.Error(), "-", "-", "-")
			continue
		}
		c.Settle(15 * time.Second)
		// Per-node reservation utilization spread.
		var utils []float64
		occupied := 0
		for _, n := range c.Nodes {
			st := n.Status()
			u := st.Reserved.UtilizationL1(st.Spec.Capacity)
			utils = append(utils, u)
			if len(st.VMs) > 0 {
				occupied++
			}
		}
		s := metrics.Summarize(utils)
		tb.AddRow(pol.Name(), len(resp.Placed),
			c.Metrics.Summarize("gl.probe-depth").Mean, s.Stddev, occupied)
	}
	return Result{
		ID:    "A2",
		Title: "Ablation: GL dispatch policy (balance vs packing)",
		Table: tb,
		Notes: []string{
			"expected shape: least-loaded minimizes utilization spread;",
			"most-loaded concentrates VMs on fewer nodes (energy-friendly)",
		},
	}
}
