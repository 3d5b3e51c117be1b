package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"

	"snooze/internal/telemetry/sketch"
)

// TestCountWeightedDecimation is the accuracy regression for count-weighted
// stitched reductions: dense decimated history must dominate sparse recent
// raw samples in proportion to the samples behind it. 900 early samples at
// value 10 collapse into ~15 tier buckets; 100 recent samples at value 90
// stay raw. Per-point (unweighted) reduction would see ~15 points of 10 vs
// 100 points of 90 and report avg ≈ 79 and p50 = 90; the weighted reduction
// recovers the true distribution (avg 18, p50 = 10) from the same buckets.
func TestCountWeightedDecimation(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 128, Tiers: []TierConfig{
		{Step: time.Minute, Capacity: 512},
		{Step: 10 * time.Minute, Capacity: 512},
	}})
	at := time.Duration(0)
	for i := 0; i < 1000; i++ {
		at += time.Second
		v := 10.0
		if i >= 900 {
			v = 90.0
		}
		s.Append("e", "m", at, v)
	}
	for _, spec := range []*SummarySpec{
		{Percentiles: []float64{50, 99}, Exact: true},
		{Percentiles: []float64{50, 99}},
	} {
		sum, ok := s.Reduce("e", "m", 0, 0, spec)
		if !ok || !sum.Truncated {
			t.Fatalf("exact=%v: expected truncated full-window reduce: %+v %v", spec.Exact, sum, ok)
		}
		if sum.Weight != 1000 {
			t.Fatalf("exact=%v: weight %d, want 1000", spec.Exact, sum.Weight)
		}
		if math.Abs(sum.Avg-18) > 1e-9 {
			t.Fatalf("exact=%v: avg %v, want 18 (count-weighted)", spec.Exact, sum.Avg)
		}
		if math.Abs(sum.Percentiles[0]-10) > 10*0.011 {
			t.Fatalf("exact=%v: p50 %v, want ~10 (dense history dominates)", spec.Exact, sum.Percentiles[0])
		}
		if math.Abs(sum.Percentiles[1]-90) > 90*0.011 {
			t.Fatalf("exact=%v: p99 %v, want ~90", spec.Exact, sum.Percentiles[1])
		}
	}
}

func TestAdoptSketch(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 16})
	// A rollup series: the local appends are point averages.
	for i := 0; i < 8; i++ {
		s.Append("gm/g1", "util", sec(i), 0.5)
	}
	genBefore := s.Generation("gm/g1", "util")

	// The member distribution behind those averages is bimodal.
	member := sketch.New(0.01)
	member.InsertN(0.1, 500)
	member.InsertN(0.9, 500)
	if !s.AdoptSketch("gm/g1", "util", member.Encode()) {
		t.Fatal("adoption rejected")
	}
	if g := s.Generation("gm/g1", "util"); g <= genBefore {
		t.Fatalf("adoption did not bump the generation: %d then %d", genBefore, g)
	}
	spec := &SummarySpec{Percentiles: []float64{5, 95}}
	sum, ok := s.Reduce("gm/g1", "util", 0, 0, spec)
	if !ok {
		t.Fatal("reduce failed")
	}
	if math.Abs(sum.Percentiles[0]-0.1) > 0.1*0.011 || math.Abs(sum.Percentiles[1]-0.9) > 0.9*0.011 {
		t.Fatalf("quantiles did not come from the adopted distribution: %v", sum.Percentiles)
	}
	// SeriesSketch prefers the adopted replica.
	enc, ok := s.SeriesSketch("gm/g1", "util")
	if !ok || enc.Total != 1000 {
		t.Fatalf("SeriesSketch: %+v %v", enc, ok)
	}
	// A stale (smaller) replica is a no-op; a larger one replaces.
	stale := sketch.New(0.01)
	stale.InsertN(0.4, 10)
	if s.AdoptSketch("gm/g1", "util", stale.Encode()) {
		t.Fatal("stale adoption accepted")
	}
	member.InsertN(0.9, 100)
	if !s.AdoptSketch("gm/g1", "util", member.Encode()) {
		t.Fatal("grown adoption rejected")
	}
	// Adoption onto an unknown series creates it.
	if !s.AdoptSketch("gm/g2", "util", member.Encode()) {
		t.Fatal("adoption onto missing series rejected")
	}
	if _, ok := s.SeriesSketch("gm/g2", "util"); !ok {
		t.Fatal("created series has no sketch")
	}
	// Malformed encodings are rejected.
	bad := member.Encode()
	bad.Total += 7
	if s.AdoptSketch("gm/g3", "util", bad) {
		t.Fatal("malformed encoding adopted")
	}
}

// TestConcurrentAppendReduce exercises the sketch read/write paths under the
// race detector: appends and adoptions mutate per-series sketches under
// shard write-locks while reductions (fast path, windowed sketch path and
// exact path) read them under read-locks.
func TestConcurrentAppendReduce(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 32})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // appender: same series the readers reduce
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			s.Append("e", "m", time.Duration(i)*time.Second, float64(i%100))
		}
	}()
	wg.Add(1)
	go func() { // adopter: installs growing replicas concurrently
		defer wg.Done()
		member := sketch.New(0.01)
		for i := 1; i <= 50; i++ {
			member.InsertN(float64(i), 10)
			s.AdoptSketch("e", "m", member.Encode())
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true}
			exact := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true, Exact: true}
			for i := 0; i < 500; i++ {
				s.Reduce("e", "m", 0, 0, spec)                                      // covers-everything fast path
				s.Reduce("e", "m", time.Duration(i)*time.Second, sec(i+1000), spec) // windowed sketch path
				s.Reduce("e", "m", 0, 0, exact)
				s.SeriesSketch("e", "m")
			}
		}()
	}
	wg.Wait()
}
