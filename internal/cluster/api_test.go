package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/api/v1/livebackend"
	"snooze/internal/hierarchy"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/workload"
)

// The /v1 backend of a simulated cluster is the live backend: reads show
// what the GMs know, so a test that reads right after a change settles one
// monitor period first.
var monitorPeriod = hierarchy.DefaultLCConfig().MonitorPeriod

func newAPI(t *testing.T) (*Cluster, apiv1.Backend) {
	t.Helper()
	c := New(DefaultConfig(workload.Grid5000Topology(6, 2), 11))
	c.Settle(30 * time.Second)
	if c.Leader() == nil {
		t.Fatal("hierarchy did not form")
	}
	return c, c.API(0)
}

func submit(t *testing.T, b apiv1.Backend, n int) apiv1.SubmitResult {
	t.Helper()
	specs := make([]apiv1.VMSpec, n)
	for i := range specs {
		specs[i] = apiv1.VMSpec{
			ID:        fmt.Sprintf("vm-%02d", i),
			Requested: apiv1.Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10},
		}
	}
	result, err := b.SubmitVMs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	return result
}

func TestSubmitListGet(t *testing.T) {
	c, b := newAPI(t)
	ctx := context.Background()
	result := submit(t, b, 5)
	if len(result.Placed) != 5 {
		t.Fatalf("placed: %+v", result)
	}
	c.Settle(monitorPeriod)

	vms, err := b.ListVMs(ctx)
	if err != nil || len(vms) != 5 {
		t.Fatalf("ListVMs: %d %v", len(vms), err)
	}
	for i := 1; i < len(vms); i++ {
		if vms[i-1].ID >= vms[i].ID {
			t.Fatalf("VMs not sorted: %s >= %s", vms[i-1].ID, vms[i].ID)
		}
	}
	vm, err := b.GetVM(ctx, "vm-03")
	if err != nil || vm.Node == "" {
		t.Fatalf("GetVM: %+v %v", vm, err)
	}
	if _, err := b.GetVM(ctx, "nope"); !errors.Is(err, apiv1.ErrNotFound) {
		t.Fatalf("GetVM unknown: %v", err)
	}

	nodes, err := b.ListNodes(ctx)
	if err != nil || len(nodes) != 6 {
		t.Fatalf("ListNodes: %d %v", len(nodes), err)
	}
	node, err := b.GetNode(ctx, vm.Node)
	if err != nil || node.Capacity.CPU == 0 {
		t.Fatalf("GetNode: %+v %v", node, err)
	}
	if _, err := b.GetNode(ctx, "nope"); !errors.Is(err, apiv1.ErrNotFound) {
		t.Fatalf("GetNode unknown: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, b := newAPI(t)
	ctx := context.Background()
	if _, err := b.SubmitVMs(ctx, nil); !errors.Is(err, apiv1.ErrInvalid) {
		t.Fatalf("empty batch: %v", err)
	}
	dup := []apiv1.VMSpec{{ID: "a"}, {ID: "a"}}
	if _, err := b.SubmitVMs(ctx, dup); !errors.Is(err, apiv1.ErrInvalid) {
		t.Fatalf("duplicate IDs: %v", err)
	}
}

func TestTopologyAndConsolidate(t *testing.T) {
	c, b := newAPI(t)
	ctx := context.Background()
	submit(t, b, 6)

	topo, err := b.Topology(ctx, true)
	if err != nil || topo.GL == "" {
		t.Fatalf("topology: %+v %v", topo, err)
	}
	lcs := 0
	for _, gm := range topo.GMs {
		lcs += len(gm.LCs)
	}
	if lcs != 6 {
		t.Fatalf("deep topology LCs: %d", lcs)
	}

	// Let VMs reach running, then plan (dry run: no cluster mutation).
	c.Settle(30 * time.Second)
	plan, err := b.Consolidate(ctx, apiv1.ConsolidationRequest{Algorithm: apiv1.AlgorithmFFD})
	if err != nil || plan.VMs != 6 {
		t.Fatalf("consolidate: %+v %v", plan, err)
	}
	if _, err := b.Consolidate(ctx, apiv1.ConsolidationRequest{Algorithm: "magic"}); !errors.Is(err, apiv1.ErrInvalid) {
		t.Fatalf("bad algorithm: %v", err)
	}
}

// TestBackendFallsBackAcrossEPs: GL discovery probes the entry points in
// order, so an unreachable first EP costs one failed call and the next one
// names the GL.
func TestBackendFallsBackAcrossEPs(t *testing.T) {
	c, _ := newAPI(t)
	b := livebackend.New(livebackend.Config{
		Bus:         c.Bus,
		Addr:        "api:fallback",
		EPs:         []transport.Address{"ep:dead", c.EPs[0].Addr()}, // ep:dead is not registered
		CallTimeout: 5 * time.Second,
		Wait:        c.drive,
	})
	topo, err := b.Hierarchy(context.Background(), false)
	if err != nil || topo.GL != string(c.Leader().Addr()) {
		t.Fatalf("discover: GL %q, want %q (%v)", topo.GL, c.Leader().Addr(), err)
	}
}

// TestBackendNoGL: when no entry point knows a live GL, a submit is refused
// as unavailable after asking the EPs, and nothing is sent to any manager.
func TestBackendNoGL(t *testing.T) {
	c, _ := newAPI(t)
	for _, m := range c.Managers {
		m.Crash()
	}
	c.Settle(30 * time.Second) // longer than the EPs' stale age
	calls := 0
	b := livebackend.New(livebackend.Config{
		Bus:         c.Bus,
		Addr:        "api:nogl",
		EPs:         []transport.Address{c.EPs[0].Addr()},
		CallTimeout: 2 * time.Second,
		Wait: func(ctx context.Context, send func(), replied func() bool) error {
			calls++
			return c.drive(ctx, send, replied)
		},
	})
	_, err := b.SubmitVMs(context.Background(), []apiv1.VMSpec{{ID: "v", Requested: apiv1.Resources{CPU: 1, MemoryMB: 1}}})
	if !errors.Is(err, apiv1.ErrUnavailable) {
		t.Fatalf("submit without GL: %v", err)
	}
	if calls != 1 {
		t.Fatalf("%d bus calls, want only the EP query", calls)
	}
}

// TestFailNode: fault injection crash-stops the node; the hierarchy then
// drops it once its GM's LCTimeout passes without a heartbeat.
func TestFailNode(t *testing.T) {
	c, b := newAPI(t)
	ctx := context.Background()
	fi := b.(apiv1.FaultInjector)
	if err := fi.FailNode(ctx, "nope"); !errors.Is(err, apiv1.ErrNotFound) {
		t.Fatalf("fail unknown: %v", err)
	}
	nodes, _ := b.ListNodes(ctx)
	if err := fi.FailNode(ctx, nodes[0].ID); err != nil {
		t.Fatal(err)
	}
	c.Settle(hierarchy.DefaultManagerConfig("", "").LCTimeout + 2*monitorPeriod)
	if got, err := b.GetNode(ctx, nodes[0].ID); !errors.Is(err, apiv1.ErrNotFound) {
		t.Fatalf("after fail: %+v %v", got, err)
	}
	if after, err := b.ListNodes(ctx); err != nil || len(after) != len(nodes)-1 {
		t.Fatalf("ListNodes after fail: %d of %d, %v", len(after), len(nodes), err)
	}
}

func TestMetricsAndTelemetry(t *testing.T) {
	c, b := newAPI(t)
	ctx := context.Background()
	submit(t, b, 3)
	c.Settle(time.Minute)

	snap, err := b.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["gm.place-ok"] == 0 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Gauges["telemetry.samples-total"] == 0 {
		t.Fatalf("telemetry gauges missing: %+v", snap.Gauges)
	}

	keys, err := b.ListSeries(ctx)
	if err != nil || len(keys) == 0 {
		t.Fatalf("ListSeries: %d %v", len(keys), err)
	}
	data, err := b.QuerySeries(ctx, apiv1.SeriesQuery{Entity: keys[0].Entity, Metric: keys[0].Metric})
	if err != nil || data.Total == 0 {
		t.Fatalf("QuerySeries: %+v %v", data, err)
	}

	// The watch replays placement events already journaled.
	stream, err := b.Watch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	placed := 0
	timeout := time.After(5 * time.Second)
	for placed < 3 {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				t.Fatalf("watch ended: %v", stream.Err())
			}
			if ev.Type == "vm.state" && ev.Attrs["state"] == "placed" {
				placed++
			}
		case <-timeout:
			t.Fatalf("saw %d placements in replay", placed)
		}
	}
}

// TestSeriesRetentionMetadata pins the /v1/series retention contract: a tiny
// raw ring that a long simulation outlives must report its tier ladder, the
// retained range, and — for windows reaching before full-resolution
// coverage — the Truncated watermark.
func TestSeriesRetentionMetadata(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(3, 1), 11)
	cfg.Retention = telemetry.StoreConfig{SeriesCapacity: 32} // default tiers
	c := New(cfg)
	c.Settle(30 * time.Second)
	b := c.API(0)
	ctx := context.Background()
	// 10 minutes of 3s monitoring = ~200 samples per node series: the
	// 32-sample raw ring wraps many times over.
	c.Settle(10 * time.Minute)

	keys, err := b.ListSeries(ctx)
	if err != nil || len(keys) == 0 {
		t.Fatalf("list: %v %v", keys, err)
	}
	entity := ""
	for _, k := range keys {
		if k.Metric == "util" {
			entity = k.Entity
			break
		}
	}
	full, err := b.QuerySeries(ctx, apiv1.SeriesQuery{Entity: entity, Metric: "util"})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Truncated {
		t.Fatalf("unbounded window over a wrapped ring must be truncated: %+v", full)
	}
	if len(full.Tiers) != 2 || time.Duration(full.Tiers[0].StepNs) != time.Minute {
		t.Fatalf("tier ladder: %+v", full.Tiers)
	}
	if full.OldestNs >= full.RawFromNs || full.NewestNs <= full.RawFromNs {
		t.Fatalf("watermarks: oldest=%d rawFrom=%d newest=%d", full.OldestNs, full.RawFromNs, full.NewestNs)
	}
	// Tier buckets really serve the evicted history: points older than
	// RawFrom exist in the reply.
	if full.Total == 0 || full.Points[0].AtNs >= full.RawFromNs {
		t.Fatalf("no decimated history served: %+v", full.Points[:min(3, len(full.Points))])
	}
	// A window inside raw coverage is full fidelity.
	recent, err := b.QuerySeries(ctx, apiv1.SeriesQuery{Entity: entity, Metric: "util", FromNs: full.RawFromNs})
	if err != nil || recent.Truncated {
		t.Fatalf("raw-covered window flagged truncated: %+v %v", recent, err)
	}
}

// TestContextCancellationUnblocksCaller: a caller that waits for the kernel
// slot gives up with its context's error.
func TestContextCancellationUnblocksCaller(t *testing.T) {
	c, b := newAPI(t)
	if err := c.hold(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := b.ListVMs(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked list: %v", err)
	}
	if err := b.(apiv1.FaultInjector).FailNode(ctx, "lc-0000"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked fail: %v", err)
	}
	c.release()
	if _, err := b.ListVMs(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRequestsShareTheKernel: /v1 handlers run on their own
// goroutines and each drives the single-threaded kernel. Concurrent requests
// all complete, and every kernel event runs with the slot held, so no two
// run at once (under -race the kernel's own state is checked too).
func TestConcurrentRequestsShareTheKernel(t *testing.T) {
	c, b := newAPI(t)
	var ticks, unheld atomic.Int64
	probe := simkernel.NewTicker(c.Kernel, time.Millisecond, func() {
		ticks.Add(1)
		if len(c.slot) != 0 {
			unheld.Add(1)
		}
	})
	probe.Start()

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, 3*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			id := fmt.Sprintf("cc-%02d", i)
			res, err := b.SubmitVMs(ctx, []apiv1.VMSpec{{ID: id, Requested: apiv1.Resources{CPU: 1, MemoryMB: 1024}}})
			if err == nil && res.Placed[id] == "" {
				err = fmt.Errorf("%s not placed: %+v", id, res)
			}
			errs <- err
			_, err = b.Topology(ctx, i%2 == 0)
			errs <- err
			_, err = b.ListNodes(ctx)
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	c.Settle(monitorPeriod)
	probe.Stop()
	if ticks.Load() == 0 || unheld.Load() != 0 {
		t.Fatalf("%d of %d kernel events ran without the slot held", unheld.Load(), ticks.Load())
	}
	if vms, err := b.ListVMs(context.Background()); err != nil || len(vms) != n {
		t.Fatalf("ListVMs after %d concurrent submits: %d %v", n, len(vms), err)
	}
}
