// Telemetry: run a bursty workload on a simulated cluster and observe the
// autonomic loop through the telemetry subsystem — watch node.overload
// events stream out of GET /v1/watch while the GM relocates VMs off the hot
// node, then pull the node's utilization history from GET /v1/series.
// Everything below the submission is pure typed-client code, so the same
// program works against a live `snoozed -role control` process.
//
// The run deliberately OUTLIVES the raw retention ring: the cluster is
// configured with a tiny 64-sample raw ring (~3 minutes of 3s monitoring)
// and then simulated for 30 minutes, so most of the history survives only in
// the downsampled 1m/10m retention tiers. The final query shows the stitched
// series, the per-tier metadata, and the Truncated watermark that tells
// consumers the window is partly decimated.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"snooze"
	apiv1 "snooze/api/v1"
	"snooze/internal/scheduling"
	"snooze/internal/telemetry"
	"snooze/internal/workload"
)

func main() {
	// A small cluster whose VMs idle at 20% and deterministically burst to
	// 100% of their reservation — the spiky web workload that triggers
	// overload relocation (Section II-C).
	top := snooze.Grid5000Topology(4, 1)
	cfg := snooze.DefaultClusterConfig(top, 7)
	reg := workload.NewRegistry()
	reg.Register("bursty", workload.BurstyTrace{
		Seed: 7, Baseline: 0.2, BurstTo: 1.0, BurstProb: 0.4,
		Slot: 2 * time.Minute, MemBase: 0.3,
	})
	cfg.Hypervisor.Traces = reg
	th := scheduling.Thresholds{Overload: 0.85, Underload: 0}
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: th.Overload, Underload: th.Underload, Repeat: 15 * time.Second}
	cfg.Manager.Overload = scheduling.OverloadRelocation{Thresholds: th}
	// A raw ring of only 64 samples (~3 minutes at the 3s monitoring
	// cadence): the 30-minute run below evicts most raw history into the
	// default 1m/10m retention tiers.
	cfg.Hub.Store = telemetry.StoreConfig{SeriesCapacity: 64}
	c := snooze.NewCluster(cfg)
	c.Settle(30 * time.Second)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	backend := snooze.NewSimBackend(c, 0)
	go func() { _ = http.Serve(ln, snooze.NewAPIHandler(backend)) }()
	cli := snooze.NewAPIClient("http://" + ln.Addr().String())
	ctx := context.Background()

	// Pack four bursty VMs onto as few nodes as first-fit allows: a burst
	// saturates the host and crosses the 85% overload threshold.
	specs := make([]apiv1.VMSpec, 4)
	for i := range specs {
		specs[i] = apiv1.VMSpec{
			ID:        fmt.Sprintf("web-%02d", i),
			Requested: apiv1.Resources{CPU: 2, MemoryMB: 4096, NetRxMbps: 100, NetTxMbps: 100},
			TraceID:   "bursty",
		}
	}
	result, err := cli.SubmitVMs(ctx, specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed %d VMs, unplaced %d\n\n", len(result.Placed), len(result.Unplaced))

	// Open the watch BEFORE driving time: ?from=1 replays the journal from
	// the beginning, then the stream follows live as the simulation runs.
	stream, err := cli.Watch(ctx, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()

	// Drive 30 virtual minutes of bursts while the stream delivers.
	go c.Settle(30 * time.Minute)

	fmt.Println("telemetry events (up to 3 node.overload crossings shown):")
	overloads := 0
	deadline := time.After(10 * time.Second)
loop:
	for overloads < 3 {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				break loop
			}
			switch ev.Type {
			case "node.overload":
				overloads++
			case "vm.state", "node.normal":
			default:
				continue
			}
			detail := ev.Attrs["util"]
			if detail == "" {
				detail = ev.Attrs["state"]
			}
			fmt.Printf("  seq=%-4d t=%-8s %-14s %-16s %s\n",
				ev.Seq, time.Duration(ev.AtNs).Round(time.Second), ev.Type, ev.Entity, detail)
		case <-deadline:
			break loop
		}
	}

	// The history behind those events: the hot node's utilization series,
	// downsampled to per-minute maxima.
	keys, err := cli.ListSeries(ctx)
	if err != nil {
		log.Fatal(err)
	}
	entity := ""
	for _, k := range keys {
		if k.Metric == "util" {
			entity = k.Entity
			break
		}
	}
	data, err := cli.QuerySeries(ctx, apiv1.SeriesQuery{
		Entity: entity, Metric: "util", Agg: "max", StepNs: int64(time.Minute), Limit: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s util (per-minute max, first %d of %d buckets):\n", entity, len(data.Points), data.Total)
	for _, p := range data.Points {
		bar := ""
		for i := 0.0; i < p.Value*40; i++ {
			bar += "#"
		}
		fmt.Printf("  %8s %5.2f %s\n", time.Duration(p.AtNs).Round(time.Second), p.Value, bar)
	}

	// The run outlived the 64-sample raw ring: the reply carries the
	// eviction watermark. History before rawFrom survives only in the
	// 1m/10m tiers, and any window reaching before it is flagged Truncated
	// so consumers (like the capacity-view builder) fall back to snapshots
	// instead of trusting decimated percentiles.
	fmt.Printf("\nretention: retained [%s, %s], full resolution from %s, truncated=%v\n",
		time.Duration(data.OldestNs).Round(time.Second),
		time.Duration(data.NewestNs).Round(time.Second),
		time.Duration(data.RawFromNs).Round(time.Second), data.Truncated)
	for _, tr := range data.Tiers {
		fmt.Printf("  tier %4s × %d: %d buckets retained\n",
			time.Duration(tr.StepNs), tr.Capacity, tr.Points)
	}

	snap, err := cli.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nautonomic loop: %d detector-driven relocation triggers, %d VM moves, %d overload events\n",
		snap.Counters["gm.detector-relocations"], snap.Counters["gm.relocations"], snap.Counters["gm.overload-events"])
}
