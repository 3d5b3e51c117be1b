package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"snooze/internal/metrics"
)

func TestTraceChain(t *testing.T) {
	tr := New(Config{Now: func() time.Duration { return 0 }})
	root := tr.StartTrace(KindDispatch, "vm/a")
	if !root.Enabled() {
		t.Fatal("root span should be enabled")
	}
	root.SetPolicy("round-robin")
	root.Candidate("gm-0", false, "no-fit")
	root.Candidate("gm-1", true, "")
	root.SetTarget("gm-1")
	root.SetView(7, 12, true, false)
	root.Annotate("node", "n3")

	child := tr.StartSpan(KindPlacement, "vm/a", root.Context())
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child must share the root's trace ID")
	}
	child.Finish("placed")
	root.Finish("placed")

	recs := tr.Select(Query{TraceID: root.Context().TraceID})
	if len(recs) != 2 {
		t.Fatalf("Select(trace) = %d spans, want 2", len(recs))
	}
	var rootRec, childRec *Record
	for i := range recs {
		if recs[i].Parent == "" {
			rootRec = &recs[i]
		} else {
			childRec = &recs[i]
		}
	}
	if rootRec == nil || childRec == nil {
		t.Fatalf("want one root and one child, got %+v", recs)
	}
	if childRec.Parent != rootRec.SpanID {
		t.Fatalf("child.Parent = %q, want %q", childRec.Parent, rootRec.SpanID)
	}
	if rootRec.Policy != "round-robin" || rootRec.Target != "gm-1" {
		t.Fatalf("evidence lost: %+v", rootRec)
	}
	if rootRec.View.Gen != 7 || rootRec.View.Samples != 12 || !rootRec.View.Fresh {
		t.Fatalf("view evidence lost: %+v", rootRec.View)
	}
	if len(rootRec.Candidates) != 2 || rootRec.Candidates[0].Reason != "no-fit" {
		t.Fatalf("candidates lost: %+v", rootRec.Candidates)
	}
	if rootRec.Attrs["node"] != "n3" {
		t.Fatalf("attrs lost: %+v", rootRec.Attrs)
	}

	if got := tr.Select(Query{Entity: "vm/a", Kind: KindPlacement}); len(got) != 1 {
		t.Fatalf("Select(entity,kind) = %d spans, want 1", len(got))
	}
}

func TestNoopSpans(t *testing.T) {
	// A nil tracer and a zero-value span must absorb every call.
	var tr *Tracer
	sp := tr.StartTrace(KindDispatch, "vm/a")
	if sp.Enabled() || sp.Context().Valid() {
		t.Fatal("nil tracer must return a disabled span")
	}
	sp.SetPolicy("p")
	sp.SetTarget("t")
	sp.SetView(1, 2, true, true)
	sp.Candidate("c", false, "r")
	sp.Annotate("k", "v")
	sp.Finish("ok")
	if tr.Len() != 0 || tr.Select(Query{}) != nil {
		t.Fatal("nil tracer must retain nothing")
	}

	// A child under an invalid parent (untraced message) is a no-op too.
	real := New(Config{})
	child := real.StartSpan(KindPlacement, "vm/a", SpanContext{})
	child.Finish("ok")
	if real.Len() != 0 {
		t.Fatalf("child of invalid parent recorded: Len = %d", real.Len())
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{Sample: 4, Now: func() time.Duration { return 0 }})
	enabled := 0
	for i := 0; i < 100; i++ {
		sp := tr.StartTrace(KindDispatch, "vm/a")
		if sp.Enabled() {
			enabled++
			// Children of a kept root are kept; children of a sampled-out
			// root (invalid context) are no-ops.
			if !tr.StartSpan(KindPlacement, "vm/a", sp.Context()).Enabled() {
				t.Fatal("child of a sampled-in root must be enabled")
			}
		} else if tr.StartSpan(KindPlacement, "vm/a", sp.Context()).Enabled() {
			t.Fatal("child of a sampled-out root must be disabled")
		}
		sp.Finish("ok")
	}
	if enabled != 25 {
		t.Fatalf("Sample=4 kept %d of 100 traces, want 25", enabled)
	}
}

func TestStoreEviction(t *testing.T) {
	const capacity = 8
	st := newStore(1, capacity) // one shard: deterministic eviction order
	for i := 0; i < 3*capacity; i++ {
		st.add(Record{TraceID: fmt.Sprintf("t%03d", i), SpanID: "s", Kind: KindDispatch})
	}
	if st.Len() != capacity {
		t.Fatalf("Len = %d, want %d", st.Len(), capacity)
	}
	recs := st.Select(Query{})
	if len(recs) != capacity {
		t.Fatalf("Select = %d, want %d", len(recs), capacity)
	}
	// The ring must retain exactly the newest `capacity` records.
	for i, r := range recs {
		want := fmt.Sprintf("t%03d", 2*capacity+i)
		if r.TraceID != want {
			t.Fatalf("recs[%d].TraceID = %q, want %q (oldest must be evicted)", i, r.TraceID, want)
		}
	}
	// An evicted trace is gone; a retained one is found via its single shard.
	if got := st.Select(Query{TraceID: "t000"}); len(got) != 0 {
		t.Fatalf("evicted trace still selectable: %+v", got)
	}
	if got := st.Select(Query{TraceID: recs[0].TraceID}); len(got) != 1 {
		t.Fatalf("retained trace not selectable by ID")
	}
}

func TestConcurrentSpanFinish(t *testing.T) {
	// Exercised under -race in CI: concurrent roots, children, queries.
	tr := New(Config{Capacity: 64, Shards: 4})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			entity := fmt.Sprintf("vm/%d", w)
			for i := 0; i < perWorker; i++ {
				root := tr.StartTrace(KindDispatch, entity)
				root.Candidate("gm-0", true, "")
				child := tr.StartSpan(KindPlacement, entity, root.Context())
				child.Finish("placed")
				root.Finish("placed")
				if i%32 == 0 {
					tr.Select(Query{Entity: entity})
					tr.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if got, max := tr.Len(), 4*64; got > max {
		t.Fatalf("Len = %d exceeds store capacity %d", got, max)
	}
}

// TestSpanIDsAndDurationKeys pins the hand-built forms against the format
// strings they replace.
func TestSpanIDsAndDurationKeys(t *testing.T) {
	tr := New(Config{})
	for _, n := range []uint64{0, 9, 0xabcdef, 1<<63 + 5, ^uint64(0) - 1} {
		tr.ids.Store(n)
		if got, want := tr.nextID(), fmt.Sprintf("%016x", n+1); got != want {
			t.Fatalf("ID after %d: %q, want %q", n, got, want)
		}
	}
	for _, kind := range []string{KindDispatch, KindPlacement, KindRelocation, KindMigration, KindEnergy,
		KindConsolidationRound, KindConsolidationMigration, "custom", ""} {
		if got := durationKey(kind); got != kind+".duration.seconds" {
			t.Fatalf("durationKey(%q) = %q", kind, got)
		}
	}
}

// TestFinishWithMetricsAllocatesNothing: storing a finished span and
// observing its duration cost no allocation once the histogram exists.
func TestFinishWithMetricsAllocatesNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{Metrics: reg, Now: func() time.Duration { return 0 }})
	const runs = 100
	spans := make([]Span, runs+1) // AllocsPerRun adds a warm-up run
	for i := range spans {
		spans[i] = tr.StartTrace(KindPlacement, "vm/a")
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() { spans[i].Finish("placed"); i++ }); allocs != 0 {
		t.Fatalf("Finish: %v allocs, want 0", allocs)
	}
	if h, ok := reg.Histogram(KindPlacement + ".duration.seconds"); !ok || h.Count != runs+1 {
		t.Fatalf("placement histogram: %+v %v", h, ok)
	}
}

// BenchmarkDecisionSpan measures the disabled path a nil tracer takes at
// every instrumentation site — it must stay allocation-free.
func BenchmarkDecisionSpan(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var tr *Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.StartTrace(KindDispatch, "vm/a")
			sp.SetPolicy("p")
			sp.Candidate("gm-0", true, "")
			sp.Finish("ok")
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tr := New(Config{Now: func() time.Duration { return 0 }})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.StartTrace(KindDispatch, "vm/a")
			sp.SetPolicy("p")
			sp.Candidate("gm-0", true, "")
			sp.Finish("ok")
		}
	})
}

func BenchmarkTraceStoreAppend(b *testing.B) {
	st := newStore(8, 256)
	rec := Record{TraceID: "0000000000000001", SpanID: "0000000000000002", Kind: KindPlacement, Entity: "vm/a"}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r := rec
			r.TraceID = fmt.Sprintf("%016x", i)
			st.add(r)
			i++
		}
	})
}
