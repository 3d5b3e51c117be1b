package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Brute-force reference model
//
// refSeries replays the tiered retention policy with plain slices and no
// rings: an independent (much slower) implementation the store must agree
// with point for point. Evictions pop the front of the raw slice into the
// finest tier's pending bucket; completed buckets append to the tier slice,
// whose own front-pops cascade down the ladder.
// ---------------------------------------------------------------------------

type refTier struct {
	step    time.Duration
	cap     int
	buckets []bucket
	pending bucket
}

type refSeries struct {
	cap   int
	raw   []Sample
	tiers []refTier
}

func newRefSeries(capacity int, tiers []TierConfig) *refSeries {
	r := &refSeries{cap: capacity}
	for _, tc := range tiers {
		r.tiers = append(r.tiers, refTier{step: tc.Step, cap: tc.Capacity})
	}
	return r
}

func (r *refSeries) append(sm Sample) {
	r.raw = append(r.raw, sm)
	for len(r.raw) > r.cap {
		old := r.raw[0]
		r.raw = r.raw[1:]
		r.absorb(0, bucket{at: old.At, min: old.Value, max: old.Value, sum: old.Value, count: 1})
	}
}

func (r *refSeries) absorb(i int, b bucket) {
	if i >= len(r.tiers) {
		return
	}
	t := &r.tiers[i]
	start := b.at - b.at%t.step
	if t.pending.count == 0 {
		t.pending = bucket{at: start, min: b.min, max: b.max, sum: b.sum, count: b.count}
		return
	}
	if start == t.pending.at {
		t.pending.fold(b)
		return
	}
	t.buckets = append(t.buckets, t.pending)
	t.pending = bucket{at: start, min: b.min, max: b.max, sum: b.sum, count: b.count}
	for len(t.buckets) > t.cap {
		old := t.buckets[0]
		t.buckets = t.buckets[1:]
		r.absorb(i+1, old)
	}
}

// points returns the stitched point sequence in [from, to], oldest first.
func (r *refSeries) points(from, to time.Duration) []point {
	var out []point
	for i := len(r.tiers) - 1; i >= 0; i-- {
		t := &r.tiers[i]
		for _, b := range t.buckets {
			if b.at >= from && b.at <= to {
				out = append(out, bucketPoint(b))
			}
		}
		if t.pending.count > 0 && t.pending.at >= from && t.pending.at <= to {
			out = append(out, bucketPoint(t.pending))
		}
	}
	for _, sm := range r.raw {
		if sm.At >= from && sm.At <= to {
			out = append(out, rawPoint(sm))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

// tiersSmall is a fast-compacting ladder for tests: 10s buckets backed by
// 1m buckets.
func tiersSmall(c1, c2 int) []TierConfig {
	return []TierConfig{{Step: 10 * time.Second, Capacity: c1}, {Step: time.Minute, Capacity: c2}}
}

func TestTieredEvictionCompactsIntoBuckets(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 4, Tiers: tiersSmall(4, 4)})
	// 2s cadence: each 10s bucket absorbs 5 raw samples once they evict.
	for i := 0; i < 24; i++ {
		s.Append("e", "m", sec(2*i), float64(i))
	}
	// 24 appends, raw keeps 4 → 20 evicted (t = 0s..38s).
	info, ok := s.Info("e", "m")
	if !ok {
		t.Fatal("no info")
	}
	if info.RawPoints != 4 || info.Evicted != 20 {
		t.Fatalf("raw=%d evicted=%d", info.RawPoints, info.Evicted)
	}
	if info.RawFrom != sec(40) || info.NewestAt != sec(46) {
		t.Fatalf("rawFrom=%v newest=%v", info.RawFrom, info.NewestAt)
	}
	// Evicted samples 0..19 (t=0..38s) → 10s buckets at 0,10,20,30 complete
	// or pending. Bucket at 30s holds t=30..38 and is still pending (no
	// eviction past 40s yet).
	got := s.Query("e", "m", 0, 0)
	if len(got) != 4+4 {
		t.Fatalf("stitched points: %v", got)
	}
	// First bucket: samples 0..4 (t=0,2,4,6,8), avg = 2.
	if got[0].At != 0 || got[0].Value != 2 {
		t.Fatalf("first bucket: %+v", got[0])
	}
	// Oldest watermark is the first bucket's start.
	if info.OldestAt != 0 {
		t.Fatalf("oldestAt=%v", info.OldestAt)
	}
	if info.Points != 8 {
		t.Fatalf("points=%d", info.Points)
	}
}

func TestTierRingWrapAtEachTier(t *testing.T) {
	// Raw 2, tier1 holds 3 ten-second buckets, tier2 two one-minute buckets:
	// a long stream must wrap all three rings and lose the oldest history.
	s := NewStore(StoreConfig{SeriesCapacity: 2, Tiers: tiersSmall(3, 2)})
	ref := newRefSeries(2, tiersSmall(3, 2))
	for i := 0; i < 200; i++ {
		sm := Sample{At: sec(2 * i), Value: float64(i % 17)}
		s.Append("e", "m", sm.At, sm.Value)
		ref.append(sm)
	}
	info, ok := s.Info("e", "m")
	if !ok {
		t.Fatal("no info")
	}
	if len(info.Tiers) != 2 {
		t.Fatalf("tiers: %+v", info.Tiers)
	}
	if info.Tiers[0].Points != 3+1 { // full ring + pending
		t.Fatalf("tier1 points=%d", info.Tiers[0].Points)
	}
	if info.Tiers[1].Points != 2+1 {
		t.Fatalf("tier2 points=%d", info.Tiers[1].Points)
	}
	if info.Tiers[1].Evicted == 0 {
		t.Fatal("coarsest tier never wrapped")
	}
	// The store's stitched view must equal the reference model's.
	want := ref.points(0, 1<<62)
	got := s.Query("e", "m", 0, 0)
	if len(got) != len(want) {
		t.Fatalf("stitched %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].At != want[i].at || got[i].Value != want[i].value {
			t.Fatalf("point %d: %+v want %+v", i, got[i], want[i])
		}
	}
	// Time-ordered, no overlap.
	for i := 1; i < len(got); i++ {
		if got[i].At <= got[i-1].At {
			t.Fatalf("unordered stitch at %d: %v", i, got)
		}
	}
	if info.OldestAt != got[0].At {
		t.Fatalf("oldestAt=%v first=%v", info.OldestAt, got[0].At)
	}
}

func TestStitchedQueryAcrossTierEdges(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 4, Tiers: tiersSmall(4, 4)})
	ref := newRefSeries(4, tiersSmall(4, 4))
	for i := 0; i < 120; i++ {
		sm := Sample{At: sec(2 * i), Value: float64(i)}
		s.Append("e", "m", sm.At, sm.Value)
		ref.append(sm)
	}
	info, _ := s.Info("e", "m")
	// Windows straddling every coverage edge: tier2→tier1, tier1→raw, plus
	// interior and out-of-range windows.
	t1From := info.OldestAt + time.Minute
	edges := []struct{ from, to time.Duration }{
		{0, 1 << 62},                        // everything
		{info.RawFrom - sec(1), 1 << 62},    // just before raw coverage
		{info.RawFrom, 1 << 62},             // exactly raw coverage
		{t1From, info.RawFrom + sec(3)},     // tier interior into raw
		{info.RawFrom, info.RawFrom},        // single point at the raw edge
		{info.NewestAt, 1 << 62},            // newest only
		{info.NewestAt + sec(1), 1 << 62},   // nothing
		{info.OldestAt - sec(30), sec(100)}, // before retention into tiers
	}
	for _, w := range edges {
		got := s.Query("e", "m", w.from, w.to)
		want := ref.points(w.from, w.to)
		if len(got) != len(want) {
			t.Fatalf("[%v,%v]: %d points, want %d", w.from, w.to, len(got), len(want))
		}
		for i := range want {
			if got[i].At != want[i].at || got[i].Value != want[i].value {
				t.Fatalf("[%v,%v] point %d: %+v want %+v", w.from, w.to, i, got[i], want[i])
			}
		}
	}
}

// slopeRef recomputes the least-squares slope of points (the legacy
// reference formula, mirroring reduce_test's slopePerSecondRef).
func slopeRef(pts []point) float64 {
	if len(pts) < 2 {
		return 0
	}
	var sumT, sumV, sumTT, sumTV float64
	for _, p := range pts {
		ts := p.at.Seconds()
		sumT += ts
		sumV += p.value
		sumTT += ts * ts
		sumTV += ts * p.value
	}
	n := float64(len(pts))
	denom := n*sumTT - sumT*sumT
	if denom == 0 || math.IsNaN(denom) {
		return 0
	}
	return (n*sumTV - sumT*sumV) / denom
}

// weightedSlopeRef recomputes the count-weighted least-squares slope with
// the exact accumulation order Reduce uses (each point folded once, scaled
// by its absorbed sample count), so the equivalence assertion is bit-exact.
func weightedSlopeRef(pts []point) float64 {
	var sumT, sumV, sumTT, sumTV float64
	var weight uint64
	for _, p := range pts {
		w := float64(p.count)
		ts := p.at.Seconds()
		sumT += ts * w
		sumV += p.value * w
		sumTT += ts * ts * w
		sumTV += ts * p.value * w
		weight += uint64(p.count)
	}
	if weight < 2 {
		return 0
	}
	n := float64(weight)
	denom := n*sumTT - sumT*sumT
	if denom == 0 || math.IsNaN(denom) {
		return 0
	}
	return (n*sumTV - sumT*sumV) / denom
}

// TestTieredReduceMatchesReference pins the stitched exact reduction against
// the reference retention model under COUNT-WEIGHTED semantics: a decimated
// tier bucket contributes its average with the absorbed sample count as
// weight — to Avg, Trend and the percentile multiset alike — instead of one
// point per bucket. The expected percentiles are computed over the expanded
// multiset (each point repeated count times). The default sketch mode is
// checked against the same references within its error bound.
func TestTieredReduceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true, Exact: true}
	skSpec := &SummarySpec{Percentiles: []float64{50, 95}, Trend: true}
	for trial := 0; trial < 150; trial++ {
		capacity := 2 + rng.Intn(20)
		tiers := []TierConfig{
			{Step: time.Duration(5+rng.Intn(10)) * time.Second, Capacity: 2 + rng.Intn(8)},
			{Step: time.Duration(60+rng.Intn(60)) * time.Second, Capacity: 2 + rng.Intn(6)},
		}
		s := NewStore(StoreConfig{SeriesCapacity: capacity, Tiers: tiers})
		ref := newRefSeries(capacity, tiers)
		n := 1 + rng.Intn(300) // from under-filled raw to deep tier churn
		at := time.Duration(0)
		var allValues []float64
		for i := 0; i < n; i++ {
			at += time.Duration(1+rng.Intn(5)) * time.Second
			sm := Sample{At: at, Value: rng.Float64() * 100}
			s.Append("e", "m", sm.At, sm.Value)
			ref.append(sm)
			allValues = append(allValues, sm.Value)
		}
		from := time.Duration(rng.Intn(int(at/time.Second)+1)) * time.Second
		to := from + time.Duration(rng.Intn(int(at/time.Second)+1))*time.Second

		want := ref.points(from, to)
		sum, ok := s.Reduce("e", "m", from, to, spec)
		if ok != (len(want) > 0) || sum.Count != len(want) {
			t.Fatalf("trial %d: count %d vs ref %d (ok=%v)", trial, sum.Count, len(want), ok)
		}
		// Watermarks agree with the reference's retention state.
		evicted := uint64(n) - uint64(len(ref.raw))
		if sum.Truncated != (evicted > 0 && from < ref.raw[0].At) {
			t.Fatalf("trial %d: truncated=%v (evicted=%d from=%v rawFrom=%v)",
				trial, sum.Truncated, evicted, from, ref.raw[0].At)
		}
		if sum.RawFrom != ref.raw[0].At {
			t.Fatalf("trial %d: rawFrom=%v want %v", trial, sum.RawFrom, ref.raw[0].At)
		}
		if all := ref.points(0, 1<<62); sum.OldestAt != all[0].at {
			t.Fatalf("trial %d: oldestAt=%v want %v", trial, sum.OldestAt, all[0].at)
		}
		if !ok {
			continue
		}
		// Min/Max are exact: compare against the bucket-preserved extremes.
		// Avg/Trend/Percentiles weight every point by its absorbed count.
		mn, mx, total := want[0].min, want[0].max, 0.0
		var weight uint64
		var expanded []float64
		for _, p := range want {
			if p.min < mn {
				mn = p.min
			}
			if p.max > mx {
				mx = p.max
			}
			total += p.value * float64(p.count)
			weight += uint64(p.count)
			for j := 0; j < p.count; j++ {
				expanded = append(expanded, p.value)
			}
		}
		if sum.Min != mn || sum.Max != mx {
			t.Fatalf("trial %d: min/max %v/%v want %v/%v", trial, sum.Min, sum.Max, mn, mx)
		}
		if sum.Weight != weight {
			t.Fatalf("trial %d: weight %d want %d", trial, sum.Weight, weight)
		}
		if sum.Avg != total/float64(weight) {
			t.Fatalf("trial %d: avg %v want %v", trial, sum.Avg, total/float64(weight))
		}
		if sum.First != want[0].value || sum.Last != want[len(want)-1].value {
			t.Fatalf("trial %d: first/last", trial)
		}
		if got := weightedSlopeRef(want); sum.Trend != got {
			t.Fatalf("trial %d: trend %v want %v", trial, sum.Trend, got)
		}
		srt := sortedCopy(expanded)
		for i, q := range spec.Percentiles {
			if got := quantile(srt, q); sum.Percentiles[i] != got {
				t.Fatalf("trial %d: p%.0f = %v want %v", trial, q, sum.Percentiles[i], got)
			}
		}

		// Sketch mode over the same window: a covers-everything window
		// answers from the lifetime sketch (every appended value); a partial
		// window streams the identical weighted multiset the exact path
		// expanded. Either way the bound holds against its reference.
		skSum, skOk := s.Reduce("e", "m", from, to, skSpec)
		if skOk != ok {
			t.Fatalf("trial %d: sketch ok=%v exact ok=%v", trial, skOk, ok)
		}
		if skSum.QuantileError <= 0 {
			t.Fatalf("trial %d: sketch reduction reported no error bound", trial)
		}
		skRef := expanded
		if from <= sum.OldestAt && to >= sum.NewestAt {
			skRef = append([]float64(nil), allValues...)
		}
		skSrt := sortedCopy(skRef)
		for i, q := range skSpec.Percentiles {
			sketchWithin(t, skSum.Percentiles[i], skSrt, q, skSum.QuantileError, "tiered sketch vs exact")
		}
	}
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	for i := 1; i < len(out); i++ { // insertion sort: tiny test inputs
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestTruncationWatermark(t *testing.T) {
	// Samples start at t=100s, leaving positive timestamps below retention
	// for the empty-window probe (to <= 0 means unbounded, so the probe must
	// stay positive).
	s := NewStore(StoreConfig{SeriesCapacity: 4, Tiers: tiersSmall(4, 4)})
	spec := &SummarySpec{}
	for i := 0; i < 4; i++ {
		s.Append("e", "m", sec(100+10*i), float64(i))
	}
	// No eviction yet: nothing is truncated, even asking from before the
	// first sample.
	sum, ok := s.Reduce("e", "m", sec(1), 0, spec)
	if !ok || sum.Truncated || sum.OldestAt != sec(100) || sum.RawFrom != sec(100) {
		t.Fatalf("pre-eviction: %+v", sum)
	}
	// Wrap the raw ring.
	for i := 4; i < 8; i++ {
		s.Append("e", "m", sec(100+10*i), float64(i))
	}
	// Window fully inside raw coverage: full fidelity.
	sum, ok = s.Reduce("e", "m", sec(140), sec(170), spec)
	if !ok || sum.Truncated {
		t.Fatalf("raw window flagged truncated: %+v", sum)
	}
	if sum.RawFrom != sec(140) {
		t.Fatalf("rawFrom=%v", sum.RawFrom)
	}
	// Window reaching before RawFrom: decimated → truncated.
	sum, ok = s.Reduce("e", "m", sec(1), sec(170), spec)
	if !ok || !sum.Truncated {
		t.Fatalf("decimated window not flagged: %+v", sum)
	}
	// Empty window before all retention still reports the watermark.
	sumEmpty, ok := s.Reduce("e", "m", sec(1), sec(50), spec)
	if ok || !sumEmpty.Truncated || sumEmpty.Gen == 0 {
		t.Fatalf("pre-retention window: ok=%v %+v", ok, sumEmpty)
	}
	// Tiers disabled: evicted history is simply gone, and windows reaching
	// into it are truncated with OldestAt == RawFrom.
	s2 := NewStore(StoreConfig{SeriesCapacity: 4, Tiers: NoTiers})
	for i := 0; i < 8; i++ {
		s2.Append("e", "m", sec(100+10*i), float64(i))
	}
	sum, ok = s2.Reduce("e", "m", sec(1), 0, spec)
	if !ok || !sum.Truncated || sum.OldestAt != sum.RawFrom || sum.Count != 4 {
		t.Fatalf("tierless truncation: %+v", sum)
	}
}

func TestParseTiers(t *testing.T) {
	if tiers, err := ParseTiers(""); err != nil || tiers != nil {
		t.Fatalf("empty: %v %v", tiers, err)
	}
	if tiers, err := ParseTiers("none"); err != nil || tiers == nil || len(tiers) != 0 {
		t.Fatalf("none: %v %v", tiers, err)
	}
	tiers, err := ParseTiers("30s:64, 5m:32")
	if err != nil || len(tiers) != 2 || tiers[0].Step != 30*time.Second || tiers[0].Capacity != 64 ||
		tiers[1].Step != 5*time.Minute || tiers[1].Capacity != 32 {
		t.Fatalf("ladder: %v %v", tiers, err)
	}
	for _, bad := range []string{"1m", "1m:", ":5", "0s:4", "1m:0", "5m:8,1m:8", "x:1"} {
		if _, err := ParseTiers(bad); err == nil {
			t.Fatalf("%q parsed", bad)
		}
	}
}

// FuzzParseTiers feeds ParseTiers what an operator types into snoozed's
// -series-tiers flag. An accepted ladder is already what the store would run
// (sanitizeTiers leaves it as it is); a rejected one is an error, not a
// panic. "" (nil) is exempt: it selects the default ladder.
func FuzzParseTiers(f *testing.F) {
	for _, s := range []string{"", "none", " none ", "1m:512,10m:512", "30s:64, 5m:32", "5m:8,1m:8", "1m:0", "1h:1,", "-1s:4"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tiers, err := ParseTiers(s)
		if err != nil {
			if tiers != nil {
				t.Fatalf("%q: error %v with a ladder %v", s, err, tiers)
			}
			return
		}
		if tiers != nil && !reflect.DeepEqual(sanitizeTiers(tiers), tiers) {
			t.Fatalf("%q: accepted %v, the store would run %v", s, tiers, sanitizeTiers(tiers))
		}
	})
}

func TestEntityNewest(t *testing.T) {
	s := NewStore(StoreConfig{})
	s.Append("vm/a", "cpu.used", sec(10), 1)
	s.Append("vm/a", "mem.used", sec(14), 1) // newest across metrics wins
	s.Append("vm/b", "cpu.used", sec(3), 1)
	s.Append("node/n1", "util", sec(99), 1)
	got := s.EntityNewest("vm/")
	if len(got) != 2 || got["vm/a"] != sec(14) || got["vm/b"] != sec(3) {
		t.Fatalf("EntityNewest: %v", got)
	}
	if len(s.EntityNewest("gm/")) != 0 {
		t.Fatal("phantom prefix match")
	}
}

func TestSanitizeTiers(t *testing.T) {
	// nil → defaults; junk entries dropped; non-ascending steps dropped.
	if got := sanitizeTiers(nil); len(got) != 2 {
		t.Fatalf("default ladder: %v", got)
	}
	got := sanitizeTiers([]TierConfig{{Step: time.Minute, Capacity: 8}, {Step: time.Second, Capacity: 8}, {Step: 0, Capacity: 1}, {Step: 10 * time.Minute, Capacity: 4}})
	if len(got) != 2 || got[0].Step != time.Minute || got[1].Step != 10*time.Minute {
		t.Fatalf("sanitized: %v", got)
	}
}
