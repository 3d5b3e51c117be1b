package telemetry

import (
	"math"
	"sort"
	"time"

	"snooze/internal/telemetry/sketch"
)

// SummarySpec selects what Store.Reduce computes and owns the reusable
// scratch buffers (including the scratch quantile sketch), so a long-lived
// spec makes repeated reductions allocation-free. A spec must not be shared
// between concurrent Reduce calls (give each consumer its own, or serialize
// externally — the view cache guards its spec with the cache lock).
type SummarySpec struct {
	// Percentiles are the percentile ranks to compute, in [0, 100]
	// (e.g. 50, 95).
	Percentiles []float64
	// Trend requests the least-squares slope of value over time (1/second).
	Trend bool
	// Exact forces the sort-based reference reduction for this spec's calls:
	// percentiles computed over the sorted window values instead of the
	// sketch estimate, at O(n log n) per call. The exact path is the oracle
	// the sketch property tests compare against.
	Exact bool

	scratch []float64      // window values (exact mode), sorted once per Reduce
	weights []uint64       // per-value count weights, parallel to scratch (tier windows)
	sorter  weightedValues // persistent sort.Interface header over scratch+weights
	out     []float64      // percentile results, aliased by Summary.Percentiles
	sk      *sketch.Sketch // reusable scratch sketch for windowed sketch reductions
}

// Summary is the result of one windowed reduction over the stitched series:
// raw samples plus, where the window reaches past the raw ring, downsampled
// tier buckets (valued at the bucket average, weighted by their absorbed
// sample count). Min and Max are exact — they come from the buckets' retained
// extremes — while Avg, Percentiles and Trend are computed over the stitched
// point values. On a Truncated window they are decimation approximations;
// when the window covers the series' entire retained range, the default
// sketch mode instead answers from the series' lifetime distribution (every
// sample ever appended, at relative-error resolution) — strictly more honest
// than any decimated walk. Callers gating decisions must honour Truncated.
type Summary struct {
	// Count is the number of stitched points in the window (raw samples
	// count one each; a tier bucket counts one regardless of how many raw
	// samples it absorbed). The remaining fields are meaningful only when
	// Count > 0.
	Count int
	// Weight is the raw-sample mass behind the window's statistics: raw
	// samples weigh 1, tier buckets their absorbed Count, and the lifetime
	// fast path every sample ever appended. Equals Count when nothing in the
	// window was decimated.
	Weight uint64
	// Min, Max and Avg summarize the window's value distribution. Min/Max
	// are exact even across compacted history; Avg weights each stitched
	// point by its absorbed sample count.
	Min, Max, Avg float64
	// First/Last are the oldest/newest point values with their timestamps.
	First, Last     float64
	FirstAt, LastAt time.Duration
	// Trend is the least-squares slope in 1/second (0 unless requested and
	// the window holds >= 2 weighted samples).
	Trend float64
	// NewestAt is the timestamp of the series' newest retained sample — of
	// the whole series, not the window. A caller reusing this summary for a
	// later window [from', to'] with to' > to needs NewestAt <= to to prove
	// the grown right edge admits nothing new.
	NewestAt time.Duration
	// OldestAt is the oldest retained timestamp of the series across every
	// retention tier — the eviction watermark's far edge. History before it
	// survives only in the lifetime sketch.
	OldestAt time.Duration
	// RawFrom is where full-resolution coverage begins: samples older than
	// RawFrom survive only as downsampled tier buckets (or in the sketches).
	// Equals OldestAt while nothing has been evicted.
	RawFrom time.Duration
	// Truncated reports that the window's left edge precedes RawFrom while
	// the series has evicted raw samples: part of the requested window was
	// decimated to tier resolution or lost outright, so point-walk figures
	// are approximations. Consumers feeding control decisions (view.Builder
	// freshness gating) must treat a truncated window as untrustworthy
	// history rather than a full-fidelity sample set.
	Truncated bool
	// Percentiles holds one value per SummarySpec.Percentiles rank, in spec
	// order. It aliases the spec's buffer: valid until the next Reduce with
	// the same spec.
	Percentiles []float64
	// QuantileError is the relative-error bound on Percentiles: the sketch's
	// alpha when they are sketch-derived, 0 on the exact reference path.
	QuantileError float64
	// Gen is the series' append generation at reduction time (0 for an
	// unknown series), taken under the same lock as the samples — a caller
	// caching this summary keyed by Gen can never associate it with data it
	// did not see.
	Gen uint64
}

// weightedValues sorts a value slice and its parallel count-weight slice
// together — the exact reference reduction's weighted multiset.
type weightedValues struct {
	v []float64
	w []uint64
}

func (p *weightedValues) Len() int           { return len(p.v) }
func (p *weightedValues) Less(i, j int) bool { return p.v[i] < p.v[j] }
func (p *weightedValues) Swap(i, j int) {
	p.v[i], p.v[j] = p.v[j], p.v[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}

// weightedQuantile returns percentile rank q over the expanded multiset in
// which sorted value vals[i] appears ws[i] times (total mass is the sum of
// ws), with the same rank convention and linear interpolation as quantile():
// with all weights 1 the two agree bit-for-bit.
func weightedQuantile(vals []float64, ws []uint64, total uint64, q float64) float64 {
	if len(vals) == 0 || total == 0 {
		return 0
	}
	if q <= 0 {
		return vals[0]
	}
	if q >= 100 {
		return vals[len(vals)-1]
	}
	rank := q / 100 * float64(total-1)
	lo := uint64(math.Floor(rank))
	frac := rank - float64(lo)
	// Locate the values at expanded indices lo and lo+1, then interpolate
	// with the same expression quantile() uses over an explicitly expanded
	// slice, so the two agree bit-for-bit.
	var cum uint64
	for i, w := range ws {
		cum += w
		if lo < cum {
			v0 := vals[i]
			if frac == 0 {
				return v0
			}
			v1 := v0
			if lo+1 >= cum && i+1 < len(vals) {
				v1 = vals[i+1]
			}
			return v0*(1-frac) + v1*frac
		}
	}
	return vals[len(vals)-1]
}

// Reduce computes the windowed summary of (entity, metric) over At in
// [from, to] in a single pass under the shard read-lock.
//
// In the default sketch mode, percentiles come from the sketch plane: a
// window covering the series' entire retained range is answered in O(1) from
// the per-series lifetime sketch and moments (no iteration at all — the path
// uncached capacity-view builds ride); any other window streams its stitched
// points into the spec's scratch sketch (no sort, no per-call allocation) and
// reads quantiles at relative-error QuantileError. With SummarySpec.Exact the
// sort-based reference reduction runs instead.
//
// Both modes weight each stitched point by its absorbed raw-sample count, so
// decimated history contributes to Avg, Trend and Percentiles in proportion
// to the samples behind it rather than one point per bucket.
//
// The window is stitched across retention tiers (see Query); the returned
// watermark fields (Truncated, OldestAt, RawFrom) tell the caller whether it
// saw full-resolution history. to <= 0 means "no upper bound"; an empty
// window (from > to, unknown series, or no points in range) reports
// ok == false with the series' generation and watermark still populated.
func (s *Store) Reduce(entity, metric string, from, to time.Duration, spec *SummarySpec) (Summary, bool) {
	s.reductions.Add(1)
	if to <= 0 {
		to = time.Duration(1<<63 - 1)
	}
	sum := Summary{}
	if from > to {
		sum.Gen = s.Generation(entity, metric)
		return sum, false
	}
	wantPct := len(spec.Percentiles) > 0
	exact := spec.Exact

	sh := s.shardFor(entity)
	sh.mu.RLock()
	ser := sh.lookup(entity, metric)
	if ser == nil {
		sh.mu.RUnlock()
		return sum, false
	}
	sum.Gen = ser.gen
	if ser.n > 0 {
		sum.NewestAt = ser.at(ser.n - 1).At
		sum.OldestAt = ser.oldestAt()
		sum.RawFrom = ser.rawFrom()
		sum.Truncated = ser.truncated(from)

		// Covers-everything fast path: the window admits every retained
		// point, so the lifetime sketch and moments — maintained O(1) on
		// Append — already hold the answer. No iteration, no sort. A series
		// carrying an adopted replica (a GM rollup) answers quantiles from
		// the replicated member distribution.
		if !exact && from <= sum.OldestAt && to >= sum.NewestAt {
			qs := &ser.life
			if ser.adopted != nil && ser.adopted.Count() > 0 {
				qs = ser.adopted
			}
			first := ser.oldestPoint()
			newest := ser.at(ser.n - 1)
			sum.Count = ser.retainedPoints()
			sum.Weight = ser.lifeM.N
			sum.First, sum.FirstAt = first.value, first.at
			sum.Last, sum.LastAt = newest.Value, newest.At
			sum.Min, sum.Max = qs.Min(), qs.Max()
			if ser.lifeM.N > 0 {
				sum.Avg = ser.lifeM.Sum / float64(ser.lifeM.N)
			}
			if spec.Trend {
				sum.Trend = ser.lifeM.trend()
			}
			if wantPct {
				if cap(spec.out) < len(spec.Percentiles) {
					spec.out = make([]float64, len(spec.Percentiles))
				}
				spec.out = spec.out[:len(spec.Percentiles)]
				for i, q := range spec.Percentiles {
					spec.out[i] = qs.Quantile(q)
				}
				sum.Percentiles = spec.out
				sum.QuantileError = qs.Alpha()
			}
			sh.mu.RUnlock()
			return sum, true
		}
	}
	if wantPct {
		spec.scratch = spec.scratch[:0]
		spec.weights = spec.weights[:0]
		if !exact {
			if spec.sk == nil || spec.sk.Alpha() != s.SketchAlpha() {
				spec.sk = sketch.New(s.SketchAlpha())
			} else {
				spec.sk.Reset()
			}
		}
	}
	var first, last point
	var mn, mx, total float64
	var sumT, sumV, sumTT, sumTV float64
	count := 0
	var weight uint64
	// Tier-resident (evicted) part of the window. Usually empty — scheduling
	// horizons live inside the raw ring — so the closure indirection is paid
	// only by genuinely truncated windows. Each bucket contributes with its
	// absorbed sample count as weight.
	if sum.Truncated && len(ser.tiers) > 0 {
		ser.visitTierPoints(from, to, func(p point) {
			if count == 0 {
				first, mn, mx = p, p.min, p.max
			} else {
				if p.min < mn {
					mn = p.min
				}
				if p.max > mx {
					mx = p.max
				}
			}
			last = p
			count++
			w := float64(p.count)
			weight += uint64(p.count)
			total += p.value * w
			if spec.Trend {
				t := p.at.Seconds()
				sumT += t * w
				sumV += p.value * w
				sumTT += t * t * w
				sumTV += t * p.value * w
			}
			if wantPct {
				if exact {
					spec.scratch = append(spec.scratch, p.value)
					spec.weights = append(spec.weights, uint64(p.count))
				} else {
					spec.sk.InsertN(p.value, uint64(p.count))
				}
			}
		})
	}
	// Raw part: the hot path, kept as the branch-light inline loop the
	// pre-tiering Reduce ran (first/last hoisted, extremes on bare values,
	// unit weights).
	lo, hi := ser.bounds(from, to)
	if hi > lo {
		firstRaw, lastRaw := ser.at(lo), ser.at(hi-1)
		if count == 0 {
			first = rawPoint(firstRaw)
			mn, mx = firstRaw.Value, firstRaw.Value
		}
		last = rawPoint(lastRaw)
		count += hi - lo
		weight += uint64(hi - lo)
		for i := lo; i < hi; i++ {
			sm := ser.at(i)
			if sm.Value < mn {
				mn = sm.Value
			}
			if sm.Value > mx {
				mx = sm.Value
			}
			total += sm.Value
			if spec.Trend {
				t := sm.At.Seconds()
				sumT += t
				sumV += sm.Value
				sumTT += t * t
				sumTV += t * sm.Value
			}
			if wantPct {
				if exact {
					spec.scratch = append(spec.scratch, sm.Value)
				} else {
					spec.sk.Insert(sm.Value)
				}
			}
		}
	}
	sh.mu.RUnlock()
	if count == 0 {
		return sum, false
	}

	sum.Count = count
	sum.Weight = weight
	sum.First, sum.FirstAt = first.value, first.at
	sum.Last, sum.LastAt = last.value, last.at
	sum.Min, sum.Max, sum.Avg = mn, mx, total/float64(weight)
	if spec.Trend && weight >= 2 {
		n := float64(weight)
		if denom := n*sumTT - sumT*sumT; denom != 0 && !math.IsNaN(denom) {
			sum.Trend = (n*sumTV - sumT*sumV) / denom
		}
	}
	if wantPct {
		if cap(spec.out) < len(spec.Percentiles) {
			spec.out = make([]float64, len(spec.Percentiles))
		}
		spec.out = spec.out[:len(spec.Percentiles)]
		switch {
		case !exact:
			for i, q := range spec.Percentiles {
				spec.out[i] = spec.sk.Quantile(q)
			}
			sum.QuantileError = spec.sk.Alpha()
		case len(spec.weights) == 0:
			// Pure-raw exact window: the single shared sort, as before.
			sort.Float64s(spec.scratch)
			for i, q := range spec.Percentiles {
				spec.out[i] = quantile(spec.scratch, q)
			}
		default:
			// Tier-weighted exact window: sort values and weights together,
			// then rank over the expanded (count-weighted) multiset.
			for len(spec.weights) < len(spec.scratch) {
				spec.weights = append(spec.weights, 1)
			}
			spec.sorter.v, spec.sorter.w = spec.scratch, spec.weights
			sort.Sort(&spec.sorter)
			for i, q := range spec.Percentiles {
				spec.out[i] = weightedQuantile(spec.scratch, spec.weights, weight, q)
			}
		}
		sum.Percentiles = spec.out
	}
	return sum, true
}
