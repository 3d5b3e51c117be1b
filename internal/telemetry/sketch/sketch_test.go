package sketch

import (
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactBounds returns the empirical values bracketing percentile rank q of
// the sorted multiset under the floor/ceil rank convention the sketch and
// the exact reference reduction share (rank = q/100 * (n-1)).
func exactBounds(sorted []float64, q float64) (lo, hi float64) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := q / 100 * float64(len(sorted)-1)
	f := int(math.Floor(rank))
	c := int(math.Ceil(rank))
	if c >= len(sorted) {
		c = len(sorted) - 1
	}
	return sorted[f], sorted[c]
}

// withinBound asserts est is inside [(1-alpha)*lo, (1+alpha)*hi] where
// lo/hi bracket the true empirical rank value.
func withinBound(t *testing.T, est, lo, hi, alpha float64, ctx string) {
	t.Helper()
	lob := lo - alpha*math.Abs(lo) - 1e-12
	hib := hi + alpha*math.Abs(hi) + 1e-12
	if est < lob || est > hib {
		t.Fatalf("%s: estimate %v outside [%v, %v] (empirical [%v, %v], alpha %v)", ctx, est, lob, hib, lo, hi, alpha)
	}
}

func TestQuantileRelativeErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, alpha := range []float64{0.005, 0.01, 0.05} {
		for trial := 0; trial < 20; trial++ {
			s := New(alpha)
			n := 1 + rng.Intn(4000)
			vals := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				var v float64
				switch rng.Intn(4) {
				case 0:
					v = 0 // idle utilization
				case 1:
					v = rng.Float64() // fractions
				case 2:
					v = math.Exp(rng.Float64()*20 - 4) // heavy-tailed, up to ~e^16
				default:
					v = float64(rng.Intn(10000)) / 100
				}
				vals = append(vals, v)
				s.Insert(v)
			}
			sort.Float64s(vals)
			if got := s.Count(); got != uint64(n) {
				t.Fatalf("count = %d, want %d", got, n)
			}
			if s.Min() != vals[0] || s.Max() != vals[len(vals)-1] {
				t.Fatalf("min/max = %v/%v, want %v/%v", s.Min(), s.Max(), vals[0], vals[len(vals)-1])
			}
			for _, q := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 100} {
				lo, hi := exactBounds(vals, q)
				withinBound(t, s.Quantile(q), lo, hi, alpha, "quantile")
			}
		}
	}
}

func TestInsertNMatchesRepeatedInsert(t *testing.T) {
	a, b := New(0.01), New(0.01)
	vals := []float64{0, 0.25, 3, 3, 3, 42.5, 1e6}
	for _, v := range vals {
		a.InsertN(v, 5)
		for i := 0; i < 5; i++ {
			b.Insert(v)
		}
	}
	for _, q := range []float64{0, 10, 50, 90, 100} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q%v: InsertN %v != repeated %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("count/sum mismatch: %d/%v vs %d/%v", a.Count(), a.Sum(), b.Count(), b.Sum())
	}
}

// TestMergeEquivalence pins merge-then-query ≡ query-then-merge: a random
// tree of same-alpha merges must yield bit-identical quantiles to one sketch
// fed every value directly, and stay within bound of the exact multiset.
func TestMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		parts := 2 + rng.Intn(6)
		sketches := make([]*Sketch, parts)
		direct := New(0.01)
		var all []float64
		for p := 0; p < parts; p++ {
			sketches[p] = New(0.01)
			n := rng.Intn(1000)
			for i := 0; i < n; i++ {
				v := math.Exp(rng.Float64()*12 - 2)
				if rng.Intn(10) == 0 {
					v = 0
				}
				sketches[p].Insert(v)
				direct.Insert(v)
				all = append(all, v)
			}
		}
		// Random merge tree: repeatedly merge a random sketch into another.
		for len(sketches) > 1 {
			i := rng.Intn(len(sketches) - 1)
			sketches[i].Merge(sketches[i+1])
			sketches = append(sketches[:i+1], sketches[i+2:]...)
		}
		merged := sketches[0]
		if merged.Count() != direct.Count() {
			t.Fatalf("merged count %d != direct %d", merged.Count(), direct.Count())
		}
		sort.Float64s(all)
		for _, q := range []float64{0, 5, 50, 95, 99, 100} {
			if m, d := merged.Quantile(q), direct.Quantile(q); m != d {
				t.Fatalf("q%v: merged %v != direct %v", q, m, d)
			}
			if len(all) > 0 {
				lo, hi := exactBounds(all, q)
				withinBound(t, merged.Quantile(q), lo, hi, 0.01, "merged quantile")
			}
		}
	}
}

func TestMergeMixedAlpha(t *testing.T) {
	coarse, fine := New(0.05), New(0.01)
	vals := []float64{1, 2, 4, 8, 16, 32}
	for _, v := range vals {
		coarse.Insert(v)
	}
	fine.InsertN(64, 2)
	fine.Merge(coarse)
	if fine.Count() != 8 {
		t.Fatalf("count = %d, want 8", fine.Count())
	}
	if fine.Min() != 1 || fine.Max() != 64 {
		t.Fatalf("min/max = %v/%v, want 1/64", fine.Min(), fine.Max())
	}
	wantSum := 1.0 + 2 + 4 + 8 + 16 + 32 + 128
	if math.Abs(fine.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", fine.Sum(), wantSum)
	}
	// Compounded bound: alpha_fine + alpha_coarse (+ cross term, negligible).
	sorted := append(append([]float64(nil), vals...), 64, 64)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 50, 100} {
		lo, hi := exactBounds(sorted, q)
		withinBound(t, fine.Quantile(q), lo, hi, 0.07, "mixed-alpha quantile")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(0.02)
	var vals []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 100
		if i%7 == 0 {
			v = 0
		}
		s.Insert(v)
		vals = append(vals, v)
	}
	enc := s.Encode()
	dec := Decode(enc)
	if dec.Count() != s.Count() || dec.Min() != s.Min() || dec.Max() != s.Max() || dec.Sum() != s.Sum() || dec.Alpha() != s.Alpha() {
		t.Fatalf("round trip lost exact stats")
	}
	for _, q := range []float64{0, 25, 50, 75, 95, 100} {
		if dec.Quantile(q) != s.Quantile(q) {
			t.Fatalf("q%v: decoded %v != original %v", q, dec.Quantile(q), s.Quantile(q))
		}
	}
	// A decoded sketch keeps merging correctly.
	dec.Merge(s)
	if dec.Count() != 2*s.Count() {
		t.Fatalf("merge after decode: count %d, want %d", dec.Count(), 2*s.Count())
	}
	// Corrupt encoding decodes to an empty sketch, not a lying one.
	enc.Total += 3
	if bad := Decode(enc); bad.Count() != 0 {
		t.Fatalf("corrupt encoding decoded to count %d, want 0", bad.Count())
	}
}

func TestZerosAndEmpty(t *testing.T) {
	s := New(0.01)
	if s.Quantile(50) != 0 || s.Count() != 0 || s.Min() != 0 || s.Max() != 0 || s.Avg() != 0 {
		t.Fatalf("empty sketch not all-zero")
	}
	s.InsertN(0, 10)
	if s.Quantile(0) != 0 || s.Quantile(100) != 0 {
		t.Fatalf("all-zero sketch quantiles nonzero")
	}
	s.Insert(5)
	if got := s.Quantile(100); math.Abs(got-5) > 0.05 {
		t.Fatalf("q100 = %v, want ~5", got)
	}
	if got := s.Quantile(50); got != 0 {
		t.Fatalf("q50 = %v, want 0 (10 zeros vs 1 five)", got)
	}
	s.Insert(math.NaN())
	s.Insert(math.Inf(1))
	if s.Count() != 11 {
		t.Fatalf("non-finite values were counted")
	}
}

func TestResetReuse(t *testing.T) {
	s := New(0.01)
	for i := 1; i <= 100; i++ {
		s.Insert(float64(i))
	}
	s.Reset()
	if s.Count() != 0 || s.Quantile(50) != 0 {
		t.Fatalf("reset left residue")
	}
	s.Insert(7)
	if got := s.Quantile(50); math.Abs(got-7) > 0.07 {
		t.Fatalf("post-reset q50 = %v, want ~7", got)
	}
	if s.Min() != 7 || s.Max() != 7 || s.Count() != 1 {
		t.Fatalf("post-reset stats wrong: min %v max %v count %d", s.Min(), s.Max(), s.Count())
	}
}

func TestNewClampsAlpha(t *testing.T) {
	if got := New(0).Alpha(); got != DefaultAlpha {
		t.Fatalf("New(0) alpha = %v, want %v", got, DefaultAlpha)
	}
	if got := New(-1).Alpha(); got != DefaultAlpha {
		t.Fatalf("New(-1) alpha = %v, want %v", got, DefaultAlpha)
	}
	if got := New(0.9).Alpha(); got != maxAlpha {
		t.Fatalf("New(0.9) alpha = %v, want %v", got, maxAlpha)
	}
}

func TestClone(t *testing.T) {
	s := New(0.01)
	for i := 1; i <= 50; i++ {
		s.Insert(float64(i))
	}
	c := s.Clone()
	c.Insert(1e9)
	if s.Max() == c.Max() {
		t.Fatalf("clone shares state with original")
	}
	if s.Count() != 50 || c.Count() != 51 {
		t.Fatalf("counts: original %d clone %d", s.Count(), c.Count())
	}
}

func benchValues(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	return vals
}

func BenchmarkSketchInsert(b *testing.B) {
	vals := benchValues(1024)
	s := New(DefaultAlpha)
	for _, v := range vals {
		s.Insert(v) // warm the bucket window
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(vals[i&1023])
	}
}

func BenchmarkSketchMerge(b *testing.B) {
	vals := benchValues(8192)
	left, right := New(DefaultAlpha), New(DefaultAlpha)
	for i, v := range vals {
		if i%2 == 0 {
			left.Insert(v)
		} else {
			right.Insert(v)
		}
	}
	scratch := New(DefaultAlpha)
	scratch.Merge(left)
	scratch.Merge(right) // warm the bucket window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Reset()
		scratch.Merge(left)
		scratch.Merge(right)
	}
}

func BenchmarkSketchReduce(b *testing.B) {
	vals := benchValues(8192)
	s := New(DefaultAlpha)
	for _, v := range vals {
		s.Insert(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(50)
		_ = s.Quantile(95)
	}
}

// FuzzSketchDecode feeds Decode what a GM's summary delivers from the wire
// (SummaryUpdate.UtilSketch, adopted by Store.AdoptSketch): an Encoded
// parsed from JSON bytes. Whatever arrives, querying, re-encoding and merging
// the result never panic; Decode(s.Encode()) reproduces s; and Decode accepts
// only an encoding whose counts really add up to its total.
func FuzzSketchDecode(f *testing.F) {
	s := New(DefaultAlpha)
	for _, v := range []float64{0, 0.2, 0.5, 0.5, 0.93, 3} {
		s.Insert(v)
	}
	for _, e := range []Encoded{s.Encode(), New(0.05).Encode(), {Alpha: 0.01, Offset: -3, Counts: []uint64{0, 2, 0}, Total: 2}} {
		data, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Encoded
		if json.Unmarshal(data, &e) != nil {
			return
		}
		d := Decode(e)
		if d.Count() != 0 {
			sum, carry := e.Zero, uint64(0)
			for _, c := range e.Counts {
				var cc uint64
				sum, cc = bits.Add64(sum, c, 0)
				carry += cc
			}
			if carry != 0 || sum != e.Total {
				t.Fatalf("accepted counts %v + zero %d that do not add up to total %d", e.Counts, e.Zero, e.Total)
			}
		}
		qs := []float64{0, 50, 95, 100}
		for _, q := range qs {
			_ = d.Quantile(q)
		}
		enc := d.Encode()
		again := Decode(enc)
		if got := again.Encode(); !reflect.DeepEqual(got, enc) {
			t.Fatalf("Decode(Encode) drifted:\n got %+v\nwant %+v", got, enc)
		}
		for _, q := range qs {
			if a, b := again.Quantile(q), d.Quantile(q); a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("p%v: %v after the round trip, %v before", q, a, b)
			}
		}
		same := New(d.Alpha())
		same.Merge(d)
		if same.Count() != d.Count() {
			t.Fatalf("merged count %d, want %d", same.Count(), d.Count())
		}
		New(DefaultAlpha / 2).Merge(d)
	})
}
