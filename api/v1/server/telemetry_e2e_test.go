package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	apiv1 "snooze/api/v1"
	apiclient "snooze/api/v1/client"
	"snooze/internal/cluster"
	"snooze/internal/scheduling"
	"snooze/internal/workload"
)

// TestBurstyOverloadObservableViaWatch is the telemetry subsystem's
// end-to-end path: a bursty simulated workload overloads its host, the GM's
// detector publishes node.overload events, relocation runs off those events,
// and an operator sees it all through GET /v1/watch (live + ?from=seq
// replay) and GET /v1/series — client → HTTP → backend → hierarchy.
func TestBurstyOverloadObservableViaWatch(t *testing.T) {
	top := workload.Grid5000Topology(4, 1)
	cfg := cluster.DefaultConfig(top, 7)
	reg := workload.NewRegistry()
	reg.Register("bursty", workload.BurstyTrace{
		Seed: 7, Baseline: 0.2, BurstTo: 1.0, BurstProb: 0.4,
		Slot: 2 * time.Minute, MemBase: 0.3,
	})
	cfg.Hypervisor.Traces = reg
	th := scheduling.Thresholds{Overload: 0.85, Underload: 0}
	cfg.LC.Thresholds = th
	cfg.Manager.Overload = scheduling.OverloadRelocation{Thresholds: th}
	c := cluster.New(cfg)
	c.Settle(30 * time.Second)
	if c.Leader() == nil {
		t.Fatal("hierarchy did not form")
	}

	srv := httptest.NewServer(New(c.API(0)).Handler())
	defer srv.Close()
	cli := apiclient.New(srv.URL)
	ctx := context.Background()

	// First-fit packs all four bursty VMs (4 × 2 CPU on an 8-CPU node): a
	// burst drives the host to 100% of reservation, past the 85% threshold.
	specs := make([]apiv1.VMSpec, 4)
	for i := range specs {
		specs[i] = apiv1.VMSpec{
			ID:        fmt.Sprintf("web-%02d", i),
			Requested: apiv1.Resources{CPU: 2, MemoryMB: 4096, NetRxMbps: 100, NetTxMbps: 100},
			TraceID:   "bursty",
		}
	}
	result, err := cli.SubmitVMs(ctx, specs)
	if err != nil || len(result.Placed) != 4 {
		t.Fatalf("submit: %+v %v", result, err)
	}

	// Open the live watch before driving time, then run the bursts.
	stream, err := cli.Watch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	c.Settle(30 * time.Minute)

	var firstOverload apiv1.Event
	placed, lastSeq := 0, uint64(0)
	deadline := time.After(30 * time.Second)
collect:
	for {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				t.Fatalf("watch ended early: %v", stream.Err())
			}
			if ev.Seq <= lastSeq {
				t.Fatalf("sequence went backwards: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			switch ev.Type {
			case "vm.state":
				if ev.Attrs["state"] == "placed" {
					placed++
				}
			case "node.overload":
				if firstOverload.Seq == 0 {
					firstOverload = ev
				}
				if placed > 0 {
					break collect
				}
			}
		case <-deadline:
			t.Fatal("no node.overload event within deadline")
		}
	}
	if firstOverload.Entity == "" || firstOverload.Attrs["util"] == "" {
		t.Fatalf("overload event incomplete: %+v", firstOverload)
	}

	// Relocation must have been triggered through the detector path.
	if c.Metrics.Count("gm.detector-relocations") == 0 {
		t.Fatal("no detector-driven relocation triggers")
	}
	if c.Metrics.Count("gm.relocations") == 0 {
		t.Fatal("overload never produced relocation moves")
	}

	// Replay: a second watch from the overload's seq must start exactly
	// there (the journal retains it).
	replay, err := cli.Watch(ctx, firstOverload.Seq)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	select {
	case ev, ok := <-replay.Events():
		if !ok {
			t.Fatalf("replay ended: %v", replay.Err())
		}
		if ev.Seq != firstOverload.Seq || ev.Type != "node.overload" {
			t.Fatalf("replay from %d delivered %+v", firstOverload.Seq, ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay delivered nothing")
	}

	// The series behind the event: the overloaded node's utilization history
	// must contain samples above the threshold, and downsampling must cap
	// the point count.
	data, err := cli.QuerySeries(ctx, apiv1.SeriesQuery{
		Entity: firstOverload.Entity, Metric: "util", Agg: "max", StepNs: int64(time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if data.Total == 0 {
		t.Fatal("no util series for the overloaded node")
	}
	peak := 0.0
	for _, p := range data.Points {
		if p.Value > peak {
			peak = p.Value
		}
	}
	if peak <= 0.85 {
		t.Fatalf("series never shows the overload: peak=%v", peak)
	}
	raw, err := cli.QuerySeries(ctx, apiv1.SeriesQuery{Entity: firstOverload.Entity, Metric: "util"})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Total <= data.Total {
		t.Fatalf("downsampling did not reduce: raw=%d buckets=%d", raw.Total, data.Total)
	}

	// Key listing includes the node series, paginated.
	keys, err := cli.ListSeries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range keys {
		if k.Entity == firstOverload.Entity && k.Metric == "util" {
			found = true
		}
	}
	if !found {
		t.Fatalf("series listing misses %s/util (%d keys)", firstOverload.Entity, len(keys))
	}
}

// TestWatchSeriesValidation exercises the error envelopes of the telemetry
// routes.
func TestWatchSeriesValidation(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()

	for _, q := range []apiv1.SeriesQuery{
		{Entity: "node/n1"}, // missing metric
		{Metric: "util"},    // missing entity
		{Entity: "node/n1", Metric: "util", Agg: "median"},      // bad agg
		{Entity: "node/n1", Metric: "util", StepNs: 1e9},        // step without agg
		{Entity: "node/n1", Metric: "util", FromNs: 9, ToNs: 3}, // inverted window
	} {
		if _, err := f.cli.QuerySeries(ctx, q); err == nil {
			t.Fatalf("query %+v accepted", q)
		}
	}
	// Unknown series is an empty window, not an error.
	data, err := f.cli.QuerySeries(ctx, apiv1.SeriesQuery{Entity: "node/ghost", Metric: "util"})
	if err != nil || data.Total != 0 {
		t.Fatalf("unknown series: %+v %v", data, err)
	}
	// Bad ?from on the watch is a 400.
	resp, err := f.srv.Client().Get(f.srv.URL + "/v1/watch?from=minus-one")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad from: status %d", resp.StatusCode)
	}
}
