package view

import (
	"fmt"
	"testing"
	"time"

	"snooze/internal/resource"
	"snooze/internal/telemetry"
	"snooze/internal/types"
)

// benchHub returns a hub whose store holds a full util history for n nodes,
// plus the matching point-in-time statuses — the GM-side placement input.
func benchHub(n, samples int) (*telemetry.Hub, []types.NodeStatus) {
	hub := telemetry.NewHub(telemetry.Options{})
	sts := make([]types.NodeStatus, n)
	for i := 0; i < n; i++ {
		id := types.NodeID(fmt.Sprintf("n%03d", i))
		sts[i] = types.NodeStatus{
			Spec:     types.NodeSpec{ID: id, Capacity: types.RV(8, 16384, 1000, 1000)},
			Power:    types.PowerOn,
			Used:     types.RV(float64(i%8), float64(i%8)*2048, 0, 0),
			Reserved: types.RV(float64(i%8), float64(i%8)*2048, 0, 0),
		}
		entity := telemetry.NodeEntity(id)
		// Per-node base load with a small ripple, so the group spans calm
		// through hot nodes instead of every p95 saturating.
		for s := 0; s < samples; s++ {
			at := time.Duration(s) * 3 * time.Second
			hub.Record(entity, "util", at, (float64(i%10)+float64(s%10)/10)/12)
		}
	}
	return hub, sts
}

// BenchmarkCapacityViewBuild measures materializing per-node views (windowed
// p50/p95/max + trend over 100 samples) for a 64-LC group — the per-decision
// cost the GM pays on every placement. The builder is the hierarchy's real
// configuration: long-lived with a generation-keyed cache, so rebuilds
// between appends (dispatch fan-out, relocation scans) are map lookups.
func BenchmarkCapacityViewBuild(b *testing.B) {
	hub, sts := benchHub(64, 100)
	builder := Builder{Hub: hub, Horizon: 10 * time.Minute, MaxAge: 24 * time.Hour, Cache: NewCache()}
	now := 100 * 3 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		views := builder.Nodes(now, sts)
		if len(views) != len(sts) {
			b.Fatal("missing views")
		}
	}
}

// BenchmarkCapacityViewBuildUncached is the same build with no cache: every
// view pays one full store reduction (single pass, single sort) per node.
func BenchmarkCapacityViewBuildUncached(b *testing.B) {
	hub, sts := benchHub(64, 100)
	builder := Builder{Hub: hub, Horizon: 10 * time.Minute, MaxAge: 24 * time.Hour}
	now := 100 * 3 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		views := builder.Nodes(now, sts)
		if len(views) != len(sts) {
			b.Fatal("missing views")
		}
	}
}

// BenchmarkCapacityViewBuildInvalidated interleaves appends with builds: each
// round one node reports a fresh sample (invalidating exactly its entry), so
// a 64-node build is 1 reduction + 63 cache hits — the steady monitoring-
// ingest pattern a running GM sees.
func BenchmarkCapacityViewBuildInvalidated(b *testing.B) {
	hub, sts := benchHub(64, 100)
	builder := Builder{Hub: hub, Horizon: 10 * time.Minute, MaxAge: 24 * time.Hour, Cache: NewCache()}
	base := 100 * 3 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := base + time.Duration(i)*time.Millisecond
		entity := telemetry.NodeEntity(sts[i%len(sts)].Spec.ID)
		hub.Record(entity, "util", now, 0.5)
		views := builder.Nodes(now, sts)
		if len(views) != len(sts) {
			b.Fatal("missing views")
		}
	}
}

// BenchmarkCapacityViewPolicy measures the full placement hot path: build
// views for a 64-LC group and run the percentile-fit evaluation loop over
// them (the policy itself lives in package scheduling; the evaluation here
// replicates its per-node predicate to keep the packages decoupled).
func BenchmarkCapacityViewPolicy(b *testing.B) {
	hub, sts := benchHub(64, 100)
	builder := Builder{Hub: hub, Horizon: 10 * time.Minute, MaxAge: 24 * time.Hour, Cache: NewCache()}
	now := 100 * 3 * time.Second
	vm := types.RV(2, 4096, 10, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		views := builder.Nodes(now, sts)
		picked := false
		for _, v := range views {
			demand := vm.Divide(v.Spec.Capacity).NormInf()
			if vm.FitsIn(v.FreeReserved()) && v.PredictedUtil()+demand <= 0.9 {
				picked = true
			}
		}
		if !picked {
			b.Fatal("no candidate")
		}
	}
}

// BenchmarkDemandEstimate measures per-VM demand reconstruction (four
// aligned dimension windows reduced by an estimator) through the cache's
// reusable scratch — the per-VM cost of a GM relocation scan.
func BenchmarkDemandEstimate(b *testing.B) {
	hub := telemetry.NewHub(telemetry.Options{})
	entity := telemetry.VMEntity("v1")
	vm := types.VMStatus{Spec: types.VMSpec{ID: "v1"}}
	for i := 0; i < 100; i++ {
		vm.Used = types.RV(float64(i%8), float64(i%8)*512, 10, 10)
		hub.RecordVM(time.Duration(i)*3*time.Second, vm)
	}
	builder := Builder{Hub: hub, Horizon: 10 * time.Minute, Cache: NewCache()}
	now := 100 * 3 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := builder.Demand(now, entity, resource.MaxWindow{}); !ok {
			b.Fatal("no estimate")
		}
	}
}
