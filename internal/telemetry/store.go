// Package telemetry is the observability substrate of the reproduction: a
// deterministic, allocation-light in-memory time-series store plus an event
// journal with fan-out subscriptions. The paper's autonomic loop runs on
// resource monitoring and estimation flowing up the LC → GM → GL hierarchy
// (Section II-B); this package retains that flow as history — per-entity
// ring-buffer series for windowed queries and downsampling — and turns
// threshold crossings into a watchable event stream (node.overload,
// node.underload, vm.state, hierarchy.*) that drives GM relocation and the
// api/v1 /v1/series and /v1/watch routes.
//
// Timestamps are runtime-relative durations (simkernel.Runtime.Now): virtual
// time under the simulation kernel, process uptime in live deployments. The
// same code path serves both, exactly like the hierarchy components.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snooze/internal/telemetry/sketch"
)

// Key names one series: an entity (canonical forms "node/<id>", "vm/<id>",
// "gm/<id>") and a metric (e.g. "cpu.used", "util").
type Key struct {
	Entity string
	Metric string
}

// Sample is one measurement of a series.
type Sample struct {
	At    time.Duration
	Value float64
}

// ValidSample reports whether a measurement is ingestible: finite and
// non-negative. Monitoring flows use it to reject corrupted reports (NaN,
// Inf, negative utilization) before they poison windowed statistics — a NaN
// sample would silently disable every threshold comparison downstream.
func ValidSample(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// StoreConfig parameterizes a Store.
type StoreConfig struct {
	// SeriesCapacity is the fixed raw ring-buffer length of every series
	// (default 512 samples). Samples evicted from the raw ring are folded
	// into the downsampled tiers rather than lost (see retention.go).
	SeriesCapacity int
	// Shards is the lock-shard count, rounded up to a power of two
	// (default 32). More shards = less contention on concurrent ingest.
	Shards int
	// Tiers is the downsampled retention ladder behind the raw ring, finest
	// first with strictly ascending steps. Nil selects DefaultTiers
	// (1m × 512, 10m × 512); NoTiers (an empty slice) disables tiering and
	// restores plain ring overwrite.
	Tiers []TierConfig
	// SketchAlpha is the relative-error bound of the per-series quantile
	// sketches maintained on Append (default sketch.DefaultAlpha, 1%).
	SketchAlpha float64
}

// Moments are running least-squares accumulators over (time, value) samples:
// enough state to recover count, mean and the linear trend of everything ever
// folded in, in O(1). The store keeps one per series for its lifetime and one
// for the evicted prefix, so covers-everything reductions need no iteration.
type Moments struct {
	N     uint64  `json:"n"`
	Sum   float64 `json:"sum"`
	SumT  float64 `json:"sumT"`
	SumTT float64 `json:"sumTT"`
	SumTV float64 `json:"sumTV"`
}

// add folds one sample (t in seconds). Non-finite values are skipped, exactly
// as the sketches skip them.
func (m *Moments) add(t, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m.N++
	m.Sum += v
	m.SumT += t
	m.SumTT += t * t
	m.SumTV += t * v
}

// trend returns the least-squares slope (per second), 0 below 2 samples.
func (m *Moments) trend() float64 {
	if m.N < 2 {
		return 0
	}
	n := float64(m.N)
	denom := n*m.SumTT - m.SumT*m.SumT
	if denom == 0 || math.IsNaN(denom) {
		return 0
	}
	return (n*m.SumTV - m.SumT*m.Sum) / denom
}

// series is a fixed-capacity ring buffer of time-ordered samples, backed by
// downsampled retention tiers (retention.go) that absorb evicted samples and
// shadowed by mergeable quantile sketches (sketch package) that keep the full
// value distribution at relative-error resolution no matter how much raw
// history the rings have decimated.
type series struct {
	buf     []Sample
	head    int    // index of the oldest sample
	n       int    // number of valid samples
	gen     uint64 // generation of the newest append (store-wide unique)
	evicted uint64 // raw samples pushed out of the raw ring
	tiers   []tier // downsampled rings, finest first (bufs lazily allocated)

	// life sketches every sample ever appended; evict sketches the samples
	// pushed out of the raw ring (a prefix of life, so life alone answers
	// covers-everything quantile queries honestly even past tier evictions).
	// Both update in O(1) under the shard lock Append already holds.
	life  *sketch.Sketch
	evict *sketch.Sketch
	// adopted is a replicated distribution installed by AdoptSketch (GM→GL
	// rollups, failover restores): when present, covers-everything quantile
	// queries prefer it over life, whose inputs on a rollup series are mere
	// point averages.
	adopted *sketch.Sketch
	// lifeM / evictM mirror life/evict with trend moments.
	lifeM  Moments
	evictM Moments
}

func (s *series) append(sm Sample) {
	if s.n < len(s.buf) {
		s.buf[(s.head+s.n)%len(s.buf)] = sm
		s.n++
		return
	}
	s.evictRaw(s.buf[s.head])
	s.buf[s.head] = sm
	s.head = (s.head + 1) % len(s.buf)
}

// at returns the i-th retained sample, oldest first.
func (s *series) at(i int) Sample { return s.buf[(s.head+i)%len(s.buf)] }

// searchAtLeast returns the first retained index whose At is >= t (binary
// search over the time-ordered ring; s.n when every sample is older).
func (s *series) searchAtLeast(t time.Duration) int {
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.at(mid).At >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// bounds returns the retained index range [lo, hi) covering At in [from, to].
func (s *series) bounds(from, to time.Duration) (lo, hi int) {
	lo = s.searchAtLeast(from)
	l, h := lo, s.n // first index with At > to, searched from lo
	for l < h {
		mid := int(uint(l+h) >> 1)
		if s.at(mid).At > to {
			h = mid
		} else {
			l = mid + 1
		}
	}
	return lo, l
}

// window appends the samples with At in [from, to] to dst, oldest first. The
// window start/end are located by binary search, not a full ring scan.
func (s *series) window(from, to time.Duration, dst []Sample) []Sample {
	lo, hi := s.bounds(from, to)
	if hi <= lo {
		return dst
	}
	if dst == nil {
		dst = make([]Sample, 0, hi-lo)
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, s.at(i))
	}
	return dst
}

type shard struct {
	mu     sync.RWMutex
	series map[Key]*series
}

// Store is the lock-sharded time-series store. Appends to different keys
// proceed concurrently on separate shards; appends to the same key are
// serialized by that key's shard lock. Samples per key must arrive in
// non-decreasing time order (the hierarchy's monitoring flow guarantees it).
type Store struct {
	shards     []shard
	mask       uint64
	capacity   int
	tiers      []TierConfig  // sanitized retention ladder for new series
	alpha      float64       // relative-error bound of the per-series sketches
	samples    atomic.Uint64 // total samples ever appended
	reductions atomic.Uint64 // total Reduce calls ever served
}

// NewStore creates a store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.SeriesCapacity <= 0 {
		cfg.SeriesCapacity = 512
	}
	n := cfg.Shards
	if n <= 0 {
		n = 32
	}
	// Round up to a power of two so key hashes mask instead of mod.
	size := 1
	for size < n {
		size <<= 1
	}
	alpha := sketch.New(cfg.SketchAlpha).Alpha() // normalized exactly as sketches will see it
	s := &Store{shards: make([]shard, size), mask: uint64(size - 1), capacity: cfg.SeriesCapacity, tiers: sanitizeTiers(cfg.Tiers), alpha: alpha}
	for i := range s.shards {
		s.shards[i].series = make(map[Key]*series)
	}
	return s
}

// SketchAlpha returns the store's configured relative-error bound — the
// error bar API consumers attach to sketch-derived quantiles.
func (s *Store) SketchAlpha() float64 { return s.alpha }

// hashKey is FNV-1a over entity+"\x00"+metric.
func hashKey(entity, metric string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(entity); i++ {
		h ^= uint64(entity[i])
		h *= prime
	}
	h *= prime // separator byte 0: XOR is a no-op, the multiply still mixes
	for i := 0; i < len(metric); i++ {
		h ^= uint64(metric[i])
		h *= prime
	}
	return h
}

func (s *Store) shardFor(entity, metric string) *shard {
	return &s.shards[hashKey(entity, metric)&s.mask]
}

// Append records one sample. The hot path takes exactly one shard lock and
// allocates nothing once the series ring exists. Every append advances the
// series' generation (see Generation).
func (s *Store) Append(entity, metric string, at time.Duration, v float64) {
	sh := s.shardFor(entity, metric)
	key := Key{Entity: entity, Metric: metric}
	sh.mu.Lock()
	ser, ok := sh.series[key]
	if !ok {
		// The sketches allocate their bucket windows lazily on first insert,
		// so the headers here cost a few words each.
		ser = &series{buf: make([]Sample, s.capacity), life: sketch.New(s.alpha), evict: sketch.New(s.alpha)}
		if len(s.tiers) > 0 {
			// Tier headers only: the bucket rings allocate on first eviction,
			// so short-lived series never pay for retention they don't use.
			ser.tiers = make([]tier, len(s.tiers))
			for i, tc := range s.tiers {
				ser.tiers[i] = tier{step: tc.Step, cap: tc.Capacity}
			}
		}
		sh.series[key] = ser
	}
	ser.append(Sample{At: at, Value: v})
	ser.life.Insert(v)
	ser.lifeM.add(at.Seconds(), v)
	// Generations draw from the store-wide sample counter, so they are unique
	// across series: a series dropped by RemoveEntity and later recreated can
	// never replay an old generation value to a caching consumer.
	ser.gen = s.samples.Add(1)
	sh.mu.Unlock()
}

// Generation returns the append generation of one series: a value that
// changes on every Append and never repeats, 0 for an unknown series. View
// caches key on it to detect (in)validity without touching the samples.
func (s *Store) Generation(entity, metric string) uint64 {
	sh := s.shardFor(entity, metric)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if ser, ok := sh.series[Key{Entity: entity, Metric: metric}]; ok {
		return ser.gen
	}
	return 0
}

// Newest returns the most recent retained sample of one series in O(1) — a
// shard read-lock and a ring index, no window search. The GL uses it to test
// whether a GM's rollup series is already fresh before re-recording a summary
// it received over the wire.
func (s *Store) Newest(entity, metric string) (Sample, bool) {
	sh := s.shardFor(entity, metric)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[Key{Entity: entity, Metric: metric}]
	if !ok || ser.n == 0 {
		return Sample{}, false
	}
	return ser.at(ser.n - 1), true
}

// Query returns the retained points of (entity, metric) with timestamps in
// [from, to], oldest first, stitched across the retention tiers: history that
// has left the raw ring is served from the downsampled tier rings (one point
// per bucket, stamped at the bucket start, valued at the bucket average),
// seamlessly followed by the raw samples. A to of 0 or less means "no upper
// bound". An empty window (from > to, after the unbounded rewrite) returns
// nil without touching the series — the explicit empty-window contract.
// Callers needing to distinguish full-resolution from decimated coverage
// consult Info (or Reduce's Summary.Truncated watermark).
func (s *Store) Query(entity, metric string, from, to time.Duration) []Sample {
	if to <= 0 {
		to = time.Duration(1<<63 - 1)
	}
	if from > to {
		return nil
	}
	sh := s.shardFor(entity, metric)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[Key{Entity: entity, Metric: metric}]
	if !ok {
		return nil
	}
	return ser.stitchWindow(from, to, nil)
}

// Window visits the retained RAW samples of (entity, metric) with timestamps
// in [from, to] without copying them: visit is called with up to two
// contiguous ring segments (the window may wrap the ring boundary), oldest
// first, while the shard read-lock is held. Unlike Query it does not stitch
// retention tiers — it is the full-resolution fast path for consumers that
// must not mix measurements with bucket averages (demand estimation). The
// segments alias the live ring — visit must not retain them past its return,
// and must not call back into the store. to <= 0 means "no upper bound", as
// in Query. Returns the visited count.
func (s *Store) Window(entity, metric string, from, to time.Duration, visit func([]Sample)) int {
	if to <= 0 {
		to = time.Duration(1<<63 - 1)
	}
	if from > to {
		return 0
	}
	sh := s.shardFor(entity, metric)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[Key{Entity: entity, Metric: metric}]
	if !ok {
		return 0
	}
	lo, hi := ser.bounds(from, to)
	if hi <= lo {
		return 0
	}
	p := (ser.head + lo) % len(ser.buf)
	first := hi - lo
	if wrap := len(ser.buf) - p; first > wrap {
		first = wrap
	}
	visit(ser.buf[p : p+first])
	if rest := (hi - lo) - first; rest > 0 {
		visit(ser.buf[:rest])
	}
	return hi - lo
}

// Len returns the raw-ring sample count of one series (tier points excluded;
// see Info for the full retention picture).
func (s *Store) Len(entity, metric string) int {
	sh := s.shardFor(entity, metric)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if ser, ok := sh.series[Key{Entity: entity, Metric: metric}]; ok {
		return ser.n
	}
	return 0
}

// Keys lists every series key, sorted by entity then metric.
func (s *Store) Keys() []Key {
	var out []Key
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.series {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// RemoveEntity drops every series of one entity (a failed node, a destroyed
// VM), releasing its rings. It scans all shards; callers are rare
// (membership changes), appends are not slowed.
func (s *Store) RemoveEntity(entity string) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.series {
			if k.Entity == entity {
				delete(sh.series, k)
			}
		}
		sh.mu.Unlock()
	}
}

// NumSeries counts distinct series.
func (s *Store) NumSeries() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.series)
		sh.mu.RUnlock()
	}
	return n
}

// SeriesSketch returns the serialized lifetime value distribution of one
// series — the adopted replica when one was installed (it is the true
// distribution behind a rollup series), the locally accumulated sketch
// otherwise. ok is false for an unknown or empty-sketch series. This is what
// a GM ships inside its rollup summaries and what property tests compare
// against exact reductions.
func (s *Store) SeriesSketch(entity, metric string) (sketch.Encoded, bool) {
	sh := s.shardFor(entity, metric)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[Key{Entity: entity, Metric: metric}]
	if !ok {
		return sketch.Encoded{}, false
	}
	src := ser.life
	if ser.adopted != nil && ser.adopted.Count() > 0 {
		src = ser.adopted
	}
	if src == nil || src.Count() == 0 {
		return sketch.Encoded{}, false
	}
	return src.Encode(), true
}

// AdoptSketch installs a replicated distribution for one series: the GL calls
// it when a GM's rollup summary arrives carrying the group's real utilization
// sketch, so GL-side reductions over the rollup series answer quantiles from
// the member distribution instead of the point averages the rollup ring
// holds. Adoption is monotone by count (a replayed or stale sketch is a
// no-op, making re-deliveries idempotent) and bumps the series generation so
// view caches keyed on it refresh. The series is created if absent.
func (s *Store) AdoptSketch(entity, metric string, enc sketch.Encoded) bool {
	if enc.Total == 0 {
		return false
	}
	dec := sketch.Decode(enc)
	if dec.Count() == 0 {
		return false // malformed encoding
	}
	sh := s.shardFor(entity, metric)
	key := Key{Entity: entity, Metric: metric}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ser, ok := sh.series[key]
	if !ok {
		ser = &series{buf: make([]Sample, s.capacity), life: sketch.New(s.alpha), evict: sketch.New(s.alpha)}
		if len(s.tiers) > 0 {
			ser.tiers = make([]tier, len(s.tiers))
			for i, tc := range s.tiers {
				ser.tiers[i] = tier{step: tc.Step, cap: tc.Capacity}
			}
		}
		sh.series[key] = ser
	}
	if ser.adopted != nil && ser.adopted.Count() >= dec.Count() {
		return false
	}
	ser.adopted = dec
	ser.gen = s.samples.Add(1)
	return true
}

// TotalSamples returns the number of samples ever appended (including ones
// the rings have since overwritten).
func (s *Store) TotalSamples() uint64 { return s.samples.Load() }

// TotalReductions returns the number of Reduce calls ever served — the
// instrumentation view caches use to prove they hit (a cached build performs
// zero reductions).
func (s *Store) TotalReductions() uint64 { return s.reductions.Load() }
