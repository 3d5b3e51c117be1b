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
	// SeriesCapacity is the maximum raw ring length of every series (default
	// 512 samples). A ring starts small and doubles as samples arrive; only
	// a ring at this length evicts, folding its oldest samples into the
	// downsampled tiers rather than losing them (see retention.go).
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

// moments are running least-squares accumulators over (time, value) samples:
// enough state to recover count, mean and the linear trend of everything ever
// folded in, in O(1). The store keeps one per series for its lifetime, so
// covers-everything reductions need no iteration.
type moments struct {
	N     uint64
	Sum   float64
	SumT  float64
	SumTT float64
	SumTV float64
}

// add folds one sample (t in seconds). Non-finite values are skipped, exactly
// as the sketches skip them.
func (m *moments) add(t, v float64) {
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
func (m *moments) trend() float64 {
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

// initialRing is the raw ring length of a series' first append. Rings double
// from there up to StoreConfig.SeriesCapacity, so a short-lived series (a VM
// that reports a few times) holds a few samples, not a full ring.
const initialRing = 8

// series is a ring buffer of time-ordered samples that grows on demand up to
// the store's SeriesCapacity, backed by downsampled retention tiers
// (retention.go) that absorb evicted samples and shadowed by a mergeable
// quantile sketch (sketch package) that keeps the full value distribution at
// relative-error resolution no matter how much raw history the rings have
// decimated. A series lives by value inside its entity's record (see
// metricSeries), and its lifetime sketch by value inside it, so creating one
// allocates nothing of its own: the ring, the sketch's bucket window and the
// tier rings come later, with the samples that fill them.
type series struct {
	buf     []Sample // raw ring; nil until the first append
	head    int      // index of the oldest sample
	n       int      // number of valid samples
	gen     uint64   // generation of the newest append (store-wide unique)
	evicted uint64   // raw samples pushed out of the raw ring
	tiers   []tier   // downsampled rings, finest first; nil until the first eviction

	// life sketches every sample ever appended, in O(1) under the shard lock
	// Append already holds.
	life sketch.Sketch
	// adopted is a replicated distribution installed by AdoptSketch (GM→GL
	// rollups): when present, covers-everything quantile queries prefer it
	// over life, whose inputs on a rollup series are mere point averages.
	adopted *sketch.Sketch
	// lifeM mirrors life with trend moments.
	lifeM moments
}

// add records one sample in the ring, the lifetime sketch and the moments; t
// is sm.At in seconds.
func (s *series) add(sm Sample, t float64, capacity int, ladder []TierConfig) {
	s.append(sm, capacity, ladder)
	s.life.Insert(sm.Value)
	s.lifeM.add(t, sm.Value)
}

// append records one sample. A full ring shorter than capacity grows first;
// a full ring at capacity evicts its oldest sample into the tier ladder.
func (s *series) append(sm Sample, capacity int, ladder []TierConfig) {
	if s.n == len(s.buf) && s.n < capacity {
		s.grow(capacity)
	}
	if s.n < len(s.buf) {
		s.buf[(s.head+s.n)%len(s.buf)] = sm
		s.n++
		return
	}
	s.evictRaw(s.buf[s.head], ladder)
	s.buf[s.head] = sm
	s.head = (s.head + 1) % len(s.buf)
}

// grow doubles the full raw ring (initialRing on the first append), capped at
// capacity, copying the samples oldest-first so head restarts at 0.
func (s *series) grow(capacity int) {
	buf := make([]Sample, min(max(2*len(s.buf), initialRing), capacity))
	copy(buf[copy(buf, s.buf[s.head:]):], s.buf[:s.head])
	s.buf, s.head = buf, 0
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

// metricSeries is one series of an entity: its metric name and its data,
// inline. An entity's series sit side by side in one slice, its record, so a
// new VM's four series are one allocation and a report's appends to one
// entity stay on adjacent cache lines. A *series taken from a record is valid
// only while the shard lock is held: the record reallocates when its entity
// gains a series past the record's capacity (a GM rollup's fifth metric, or
// any second metric of an entity that began with one).
type metricSeries struct {
	metric string
	s      series
}

// shard holds the series of the entities whose names hash to it, indexed by
// entity: one map probe finds an entity's record, a short scan its metric,
// and dropping an entity deletes one map entry.
type shard struct {
	mu       sync.RWMutex
	entities map[string][]metricSeries
	n        int // series count across entities
}

// find returns the index of metric in rec, -1 if absent. It tries hint
// first: the metrics of a report arrive in the order that built the record.
func find(rec []metricSeries, metric string, hint int) int {
	if hint < len(rec) && rec[hint].metric == metric {
		return hint
	}
	for i := range rec {
		if rec[i].metric == metric {
			return i
		}
	}
	return -1
}

// lookup returns the series of (entity, metric), nil if absent; sh.mu must be
// held.
func (sh *shard) lookup(entity, metric string) *series {
	rec := sh.entities[entity]
	if i := find(rec, metric, 0); i >= 0 {
		return &rec[i].s
	}
	return nil
}

// entityMetrics is the capacity a full record grows to at least: node and VM
// entities record four metrics.
const entityMetrics = 4

// record returns the record of entity with a series for each of metrics,
// creating the missing ones; sh.mu must be held for writing. A new entity's
// record is sized for exactly metrics, so a one-metric entity pays for one
// series and a reported VM's four come in one allocation. A full record grows
// to entityMetrics series, then doubles.
func (sh *shard) record(s *Store, entity string, metrics []string) []metricSeries {
	rec := sh.entities[entity]
	grown := false
	for i, metric := range metrics {
		if find(rec, metric, i) >= 0 {
			continue
		}
		switch {
		case rec == nil:
			rec = make([]metricSeries, 0, len(metrics))
		case len(rec) == cap(rec):
			rec = append(make([]metricSeries, 0, max(2*len(rec), entityMetrics)), rec...)
		}
		rec = append(rec, metricSeries{metric: metric, s: series{life: s.sketch}})
		sh.n++
		grown = true
	}
	if grown {
		sh.entities[entity] = rec
	}
	return rec
}

// Store is the lock-sharded time-series store. Every series of one entity
// lives in the shard its entity name hashes to. Appends to entities on
// different shards proceed concurrently; appends within a shard are
// serialized by its lock. Samples per key must arrive in non-decreasing time
// order (the hierarchy's monitoring flow guarantees it).
type Store struct {
	shards     []shard
	mask       uint64
	capacity   int           // maximum raw ring length (SeriesCapacity)
	tiers      []TierConfig  // sanitized retention ladder of every series
	sketch     sketch.Sketch // empty lifetime sketch every new series copies
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
	// Round up to a power of two so entity hashes mask instead of mod.
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{shards: make([]shard, size), mask: uint64(size - 1), capacity: cfg.SeriesCapacity, tiers: sanitizeTiers(cfg.Tiers), sketch: *sketch.New(cfg.SketchAlpha)}
	for i := range s.shards {
		s.shards[i].entities = make(map[string][]metricSeries)
	}
	return s
}

// SketchAlpha returns the store's configured relative-error bound — the
// error bar API consumers attach to sketch-derived quantiles.
func (s *Store) SketchAlpha() float64 { return s.sketch.Alpha() }

// hashEntity is FNV-1a over the entity name.
func hashEntity(entity string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(entity); i++ {
		h ^= uint64(entity[i])
		h *= prime
	}
	return h
}

func (s *Store) shardFor(entity string) *shard {
	return &s.shards[hashEntity(entity)&s.mask]
}

// Append records one sample. The hot path takes exactly one shard lock and
// allocates nothing once the series ring has grown to SeriesCapacity; below
// it, a ring doubles about log2(SeriesCapacity/initialRing) times in its
// lifetime. A new series joins its entity's record, which grows when it is
// full; the Hub's Record methods append all of an entity's metrics at once,
// which sizes a new record once. Every append advances the series'
// generation (see Generation).
func (s *Store) Append(entity, metric string, at time.Duration, v float64) {
	s.appendEntity(entity, []string{metric}, at, []float64{v})
}

// appendEntity appends one sample at at to each of entity's metrics, vals[i]
// to metrics[i], under one shard lock, one entity lookup and one update of the
// sample counter. It leaves the samples, sketches and generations that
// len(metrics) Appends in the same order would leave.
func (s *Store) appendEntity(entity string, metrics []string, at time.Duration, vals []float64) {
	t := at.Seconds()
	sh := s.shardFor(entity)
	sh.mu.Lock()
	rec := sh.record(s, entity, metrics)
	// Generations draw from the store-wide sample counter, so they are unique
	// across series: a series dropped by RemoveEntity and later recreated can
	// never replay an old generation value to a caching consumer.
	gen := s.samples.Add(uint64(len(metrics))) - uint64(len(metrics))
	for i, metric := range metrics {
		ser := &rec[find(rec, metric, i)].s
		ser.add(Sample{At: at, Value: vals[i]}, t, s.capacity, s.tiers)
		gen++
		ser.gen = gen
	}
	sh.mu.Unlock()
}

// Generation returns the append generation of one series: a value that
// changes on every Append and never repeats, 0 for an unknown series. View
// caches key on it to detect (in)validity without touching the samples.
func (s *Store) Generation(entity, metric string) uint64 {
	sh := s.shardFor(entity)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if ser := sh.lookup(entity, metric); ser != nil {
		return ser.gen
	}
	return 0
}

// Newest returns the most recent retained sample of one series in O(1) — a
// shard read-lock and a ring index, no window search. The GL uses it to test
// whether a GM's rollup series is already fresh before re-recording a summary
// it received over the wire.
func (s *Store) Newest(entity, metric string) (Sample, bool) {
	sh := s.shardFor(entity)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser := sh.lookup(entity, metric)
	if ser == nil || ser.n == 0 {
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
	sh := s.shardFor(entity)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser := sh.lookup(entity, metric)
	if ser == nil {
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
	sh := s.shardFor(entity)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser := sh.lookup(entity, metric)
	if ser == nil {
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
	sh := s.shardFor(entity)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if ser := sh.lookup(entity, metric); ser != nil {
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
		for entity, rec := range sh.entities {
			for i := range rec {
				out = append(out, Key{Entity: entity, Metric: rec[i].metric})
			}
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

// RemoveEntity drops every series of one entity (a failed node, a departed
// VM), releasing its rings. It costs what the entity owns: one shard lock and
// one index entry, whatever the size of the store. Generations stay unique, so
// a series recreated under the same key starts empty and above every
// generation it had before.
func (s *Store) RemoveEntity(entity string) {
	sh := s.shardFor(entity)
	sh.mu.Lock()
	if list, ok := sh.entities[entity]; ok {
		sh.n -= len(list)
		delete(sh.entities, entity)
	}
	sh.mu.Unlock()
}

// NumSeries counts distinct series.
func (s *Store) NumSeries() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.n
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
	sh := s.shardFor(entity)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser := sh.lookup(entity, metric)
	if ser == nil {
		return sketch.Encoded{}, false
	}
	src := &ser.life
	if ser.adopted != nil && ser.adopted.Count() > 0 {
		src = ser.adopted
	}
	if src.Count() == 0 {
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
	sh := s.shardFor(entity)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.record(s, entity, []string{metric})
	ser := &rec[find(rec, metric, 0)].s
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
