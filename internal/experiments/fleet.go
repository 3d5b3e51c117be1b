package experiments

import (
	"fmt"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/metrics"
	"snooze/internal/workload"
)

// This file holds the fleet-scale scheduling-throughput harness: sustained
// submission waves through the full GL→GM→LC hierarchy on the simulated
// clock, reported as placements per wall-clock second plus per-decision
// latency percentiles. It is the experiment behind the
// BenchmarkPlacementsPerSecond CI gate and the README "Fleet scale" table;
// ScaleFull drives the paper's hierarchy shape at 10k nodes.

// F1FleetThroughput measures scheduling throughput: whole waves go through
// the GL's round-based dispatcher, which builds the group views once per wave
// and sends each GM its share of the wave in a few multi-VM placement
// requests. Expected shape: per-VM virtual time stays flat from the quick to
// the full (10k-node) dimensions.
func F1FleetThroughput(scale Scale) Result {
	lcs, gms, waves, wave := 192, 12, 6, 24
	if scale == ScaleFull {
		lcs, gms, waves, wave = 10240, 256, 20, 100
	}
	tb := metrics.NewTable("LCs", "GMs", "placed", "virtual-time", "per-VM", "placements/s(wall)", "submit-p50", "submit-p95", "submit-p99")
	c := cluster.New(cluster.DefaultConfig(workload.Grid5000Topology(lcs, gms), 8100))
	c.Settle(30 * time.Second)
	gen := workload.NewGenerator(17, nil)
	placed := 0
	start := c.Kernel.Now()
	wallStart := time.Now()
	var ferr error
	for w := 0; w < waves; w++ {
		resp, err := c.SubmitAndWait(gen.Batch(wave), time.Hour)
		if err != nil {
			ferr = err
			break
		}
		placed += len(resp.Placed)
	}
	wall := time.Since(wallStart)
	virt := c.Kernel.Now() - start
	if ferr != nil || placed == 0 {
		msg := "nothing placed"
		if ferr != nil {
			msg = ferr.Error()
		}
		tb.AddRow(lcs, gms, placed, "ERROR: "+msg, "-", "-", "-", "-", "-")
	} else {
		// Per-decision latency: one gl.submit-latency observation per wave
		// (virtual milliseconds from submission arrival to the response).
		lat := c.Metrics.Summarize("gl.submit-latency")
		ms := func(v float64) string {
			return time.Duration(v * float64(time.Millisecond)).Round(10 * time.Microsecond).String()
		}
		tb.AddRow(lcs, gms, placed,
			virt.Round(time.Millisecond),
			(virt / time.Duration(placed)).Round(time.Microsecond),
			fmt.Sprintf("%.0f", float64(placed)/wall.Seconds()),
			ms(lat.P50), ms(lat.P95), ms(lat.P99))
	}
	return Result{
		ID:    "F1",
		Title: fmt.Sprintf("Fleet scheduling throughput: %d waves x %d VMs on %d LCs / %d GMs", waves, wave, lcs, gms),
		Table: tb,
		Notes: []string{
			"expected shape: per-VM virtual time stays flat in cluster size (the hierarchy absorbs scale, E1)",
			"placements/s(wall) is wall-clock simulator throughput — machine-dependent, gated in CI by BenchmarkPlacementsPerSecond",
		},
	}
}
