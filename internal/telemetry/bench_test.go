package telemetry

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkTelemetryIngest measures the concurrent sharded Append hot path:
// every goroutine streams samples into its own slice of a 256-entity keyspace,
// so shard locks are contended realistically (many entities, few collisions).
// This is the repo's recorded perf baseline (BENCH_telemetry.json).
func BenchmarkTelemetryIngest(b *testing.B) {
	s := NewStore(StoreConfig{SeriesCapacity: 512})
	const entities = 256
	names := make([]string, entities)
	for i := range names {
		names[i] = fmt.Sprintf("node/n%03d", i)
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := next.Add(1)
		i := uint64(0)
		for pb.Next() {
			i++
			e := names[(id*31+i)%entities]
			s.Append(e, "util", time.Duration(i)*time.Millisecond, float64(i%100)/100)
		}
	})
	b.ReportMetric(float64(s.TotalSamples())/b.Elapsed().Seconds()/1e6, "Msamples/s")
}

// BenchmarkTelemetryQuery measures concurrent windowed reads with p95
// downsampling over full rings (read-side shard RLocks only; ingest has its
// own benchmark above).
func BenchmarkTelemetryQuery(b *testing.B) {
	s := NewStore(StoreConfig{SeriesCapacity: 512})
	const entities = 64
	for e := 0; e < entities; e++ {
		entity := fmt.Sprintf("node/n%03d", e)
		for i := 0; i < 512; i++ {
			s.Append(entity, "util", time.Duration(i)*time.Second, float64(i%100)/100)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			entity := fmt.Sprintf("node/n%03d", i%entities)
			raw := s.Query(entity, "util", 0, 512*time.Second)
			if out := Downsample(raw, 30*time.Second, "p95"); len(out) == 0 {
				b.Fatal("empty downsample")
			}
		}
	})
}

// BenchmarkStoreReduce measures the single-pass windowed reduction over full
// 512-sample rings: min/max/avg/trend plus two percentiles off one sort into
// the spec's reusable scratch — the store call Builder.Stats makes once per
// entity (instead of the former three Query copies + three Downsample sorts).
func BenchmarkStoreReduce(b *testing.B) {
	s := NewStore(StoreConfig{SeriesCapacity: 512})
	const entities = 64
	names := make([]string, entities)
	for e := 0; e < entities; e++ {
		names[e] = fmt.Sprintf("node/n%03d", e)
		for i := 0; i < 512; i++ {
			s.Append(names[e], "util", time.Duration(i)*time.Second, float64(i%100)/100)
		}
	}
	spec := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, ok := s.Reduce(names[i%entities], "util", 0, 512*time.Second, spec)
		if !ok || sum.Count != 512 {
			b.Fatalf("reduce: %+v %v", sum, ok)
		}
	}
}

// BenchmarkStoreNewSeries measures a series' first append, which every new
// VM pays once per reported metric: the series header, its lifetime sketch,
// the initial raw ring and a share of the shard maps' growth. Every series
// here is its entity's first, so each op also pays the entity's index entry,
// which a VM's other three metrics share. bytes/op is the
// footprint of a short-lived series. The store is replaced every 4096
// series, outside the timer, so the maps stay at a deployment's size.
func BenchmarkStoreNewSeries(b *testing.B) {
	const batch = 4096
	names := make([]string, batch)
	for i := range names {
		names[i] = fmt.Sprintf("vm/v%05d", i)
	}
	var s *Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			s = NewStore(StoreConfig{SeriesCapacity: 512})
			b.StartTimer()
		}
		s.Append(names[i%batch], "cpu.used", time.Duration(i)*time.Millisecond, 0.5)
	}
}

// BenchmarkStoreRemoveEntity measures a VM's end and a new VM's first report
// in one op: RemoveEntity drops one entity's four series, and four appends
// recreate them, in a store that already holds 1k or 64k other series.
// Removal costs the entity's own series, so ns/op must not grow with the
// store.
func BenchmarkStoreRemoveEntity(b *testing.B) {
	metrics := []string{"cpu.used", "mem.used", "net.rx", "net.tx"}
	for _, size := range []struct {
		name   string
		series int
	}{{"series=1k", 1 << 10}, {"series=64k", 1 << 16}} {
		b.Run(size.name, func(b *testing.B) {
			s := NewStore(StoreConfig{SeriesCapacity: 512})
			for i := 0; i < size.series/len(metrics); i++ {
				entity := fmt.Sprintf("vm/v%05d", i)
				for _, m := range metrics {
					s.Append(entity, m, 0, 0.5)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RemoveEntity("vm/churn")
				for _, m := range metrics {
					s.Append("vm/churn", m, time.Duration(i), 0.5)
				}
			}
		})
	}
}

// BenchmarkTelemetryJournalFanout measures Publish with a handful of live
// subscribers draining concurrently — the /v1/watch fan-out path.
func BenchmarkTelemetryJournalFanout(b *testing.B) {
	j := NewJournal(1024)
	const watchers = 4
	done := make(chan struct{})
	for w := 0; w < watchers; w++ {
		sub := j.Subscribe(0, 4096)
		go func() {
			for {
				select {
				case <-sub.Events():
				case <-done:
					return
				}
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Publish(Event{Type: EventVMState, Entity: "vm/bench"})
	}
	b.StopTimer()
	close(done)
}

// BenchmarkTelemetryJournalEmit measures the steady-state emit hot path: one
// vm.state event with inline attributes through Hub.Emit. The Attrs inline
// representation (no per-event map) is what makes this 0 allocs/op — the
// proof for the journal-emit satellite of the fleet-throughput work.
func BenchmarkTelemetryJournalEmit(b *testing.B) {
	h := NewHub(Options{})
	entity := VMEntity("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Emit(EventVMState, entity, time.Duration(i), A(
			"state", "running",
			"node", "node/n001",
			"reason", "monitor",
		))
	}
}

// BenchmarkTelemetryJournalEmitBatch measures the batched counterpart: 64
// vm.state events per EmitBatch through a single journal lock acquisition,
// the shape of a GM ending a wave of VM series. The batch slice is reused, so steady state stays
// allocation-free per event.
func BenchmarkTelemetryJournalEmitBatch(b *testing.B) {
	h := NewHub(Options{})
	entity := VMEntity("bench")
	const batch = 64
	evs := make([]Event, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range evs {
			evs[j] = Event{At: time.Duration(i), Type: EventVMState, Entity: entity,
				Attrs: A("state", "running", "node", "node/n001", "reason", "monitor")}
		}
		h.EmitBatch(evs)
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkRetentionAppend measures the Append hot path once the raw ring is
// saturated: every append evicts a sample through the tier compaction
// cascade (fold into the 1m pending bucket, periodically flush into the 1m
// ring, rarely cascade into the 10m ring) — the steady state of any
// long-running deployment. Compaction must stay allocation-free after the
// tier rings exist.
func BenchmarkRetentionAppend(b *testing.B) {
	s := NewStore(StoreConfig{SeriesCapacity: 512}) // default 1m/10m tiers
	const entities = 64
	names := make([]string, entities)
	for i := range names {
		names[i] = fmt.Sprintf("node/n%03d", i)
		// Pre-wrap each ring so the timed region is pure steady-state
		// eviction (and the lazily-created tier rings already exist).
		for j := 0; j < 1024; j++ {
			s.Append(names[i], "util", time.Duration(j)*3*time.Second, float64(j%100)/100)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := names[i%entities]
		at := time.Duration(1024+i/entities) * 3 * time.Second
		s.Append(e, "util", at, float64(i%100)/100)
	}
}

// BenchmarkTieredReduce measures the stitched windowed reduction over a
// series whose history spans all three resolutions: the unbounded window
// covers the 10m ring, the 1m ring and the raw ring in one pass — the
// /v1/series long-range query shape and the worst case for Reduce.
func BenchmarkTieredReduce(b *testing.B) {
	s := NewStore(StoreConfig{SeriesCapacity: 512})
	const entities = 16
	names := make([]string, entities)
	for e := 0; e < entities; e++ {
		names[e] = fmt.Sprintf("node/n%03d", e)
		// ~25h of 3s cadence: wraps raw (512), fills the 1m ring (512
		// buckets) and spills well into the 10m ring.
		for i := 0; i < 30000; i++ {
			s.Append(names[e], "util", time.Duration(i)*3*time.Second, float64(i%100)/100)
		}
	}
	spec := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, ok := s.Reduce(names[i%entities], "util", 1, 0, spec)
		if !ok || !sum.Truncated {
			b.Fatalf("reduce: %+v %v", sum, ok)
		}
	}
}
