// Package metrics provides the lightweight counters, gauges and duration
// histograms used to instrument the hierarchy and to print the experiment
// tables in EXPERIMENTS.md. It is intentionally minimal (stdlib only) and
// safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry is a named collection of metrics.
type Registry struct {
	mu     sync.Mutex
	counts map[string]int64
	gauges map[string]float64
	hists  map[string]*histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]int64),
		gauges: make(map[string]float64),
		hists:  make(map[string]*histogram),
	}
}

// Inc adds delta to the named counter.
func (r *Registry) Inc(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += delta
}

// Count returns the counter's current value.
func (r *Registry) Count(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// SetGauge sets the named gauge to its current value (last write wins).
func (r *Registry) SetGauge(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = v
}

// Gauge returns the gauge's current value and whether it has been set.
func (r *Registry) Gauge(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gauges[name]
	return v, ok
}

// ReservoirSize bounds the per-series sample reservoir backing Series and
// Summarize: a sliding window of the most recent observations. Everything
// older survives only in the fixed-bucket histogram (count, sum, min, max,
// bucket counts), so a long-running process holds a constant amount of
// memory per metric no matter how many samples it observes.
const ReservoirSize = 512

// DefaultBuckets are the histogram upper bounds shared by every observed
// series: an exponential ladder (factor 4 from 1µs) wide enough to cover
// second-unit decision latencies, millisecond-unit durations and small
// counts like probe depths in one fixed layout. Values above the last bound
// land in the implicit +Inf overflow bucket.
var DefaultBuckets = func() []float64 {
	bounds := make([]float64, 20)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 4
	}
	return bounds
}()

// histogram is one observed series: fixed cumulative-style bucket counts
// plus a bounded ring of the most recent raw samples for quantiles.
type histogram struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets []int64 // per-bucket counts; len(DefaultBuckets)+1, last = +Inf
	ring    []float64
	head    int // next write position
	n       int // valid ring entries
}

func (h *histogram) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(DefaultBuckets, v) // first bound >= v: the le bucket
	h.buckets[i]++
	if h.n < len(h.ring) {
		h.ring[h.head] = v
		h.head++
		h.n++
		if h.head == len(h.ring) {
			h.head = 0
		}
		return
	}
	h.ring[h.head] = v
	h.head = (h.head + 1) % len(h.ring)
}

// samples appends the retained reservoir to dst, oldest first.
func (h *histogram) samples(dst []float64) []float64 {
	start := h.head - h.n
	if start < 0 {
		start += len(h.ring)
	}
	for i := 0; i < h.n; i++ {
		dst = append(dst, h.ring[(start+i)%len(h.ring)])
	}
	return dst
}

// Observe records a sample into the named series: its fixed-bucket histogram
// and its bounded reservoir. Unlike the former raw-slice series this never
// grows — long-running snoozed processes hold ReservoirSize samples plus the
// bucket counts per metric, total.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &histogram{
			buckets: make([]int64, len(DefaultBuckets)+1),
			ring:    make([]float64, ReservoirSize),
		}
		r.hists[name] = h
	}
	h.observe(v)
}

// ObserveDuration records a duration sample in milliseconds.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, float64(d)/float64(time.Millisecond))
}

// Series returns a copy of the named series' retained reservoir (the most
// recent ReservoirSize samples, oldest first).
func (r *Registry) Series(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil || h.n == 0 {
		return nil
	}
	return h.samples(make([]float64, 0, h.n))
}

// HistogramSnapshot is a point-in-time copy of one observed series'
// fixed-bucket histogram.
type HistogramSnapshot struct {
	// Count and Sum cover every observation ever made, not just the
	// reservoir window.
	Count int64
	Sum   float64
	// Min and Max are lifetime extremes.
	Min, Max float64
	// Bounds are the bucket upper bounds (le semantics, DefaultBuckets).
	Bounds []float64
	// Counts are per-bucket observation counts, len(Bounds)+1: Counts[i]
	// holds observations v <= Bounds[i] (and > Bounds[i-1]); the final
	// entry is the +Inf overflow bucket.
	Counts []int64
}

// Histogram returns the named series' histogram snapshot.
func (r *Registry) Histogram(name string) (HistogramSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return HistogramSnapshot{}, false
	}
	return HistogramSnapshot{
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
		Bounds: DefaultBuckets,
		Counts: append([]int64(nil), h.buckets...),
	}, true
}

// Histograms returns snapshots of every observed series, keyed by name.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(r.hists))
	for n, h := range r.hists {
		out[n] = HistogramSnapshot{
			Count:  h.count,
			Sum:    h.sum,
			Min:    h.min,
			Max:    h.max,
			Bounds: DefaultBuckets,
			Counts: append([]int64(nil), h.buckets...),
		}
	}
	return out
}

// Names returns all metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]struct{}{}
	for n := range r.counts {
		seen[n] = struct{}{}
	}
	for n := range r.gauges {
		seen[n] = struct{}{}
	}
	for n := range r.hists {
		seen[n] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Summary describes a series statistically.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P95, P99  float64
	Stddev         float64
}

// Summarize computes a Summary of the named series.
func (r *Registry) Summarize(name string) Summary {
	return Summarize(r.Series(name))
}

// Summarize computes summary statistics for the samples.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum, sumsq float64
	for _, v := range s {
		sum += v
		sumsq += v * v
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Min:    s[0],
		Max:    s[len(s)-1],
		P50:    quantile(s, 0.50),
		P95:    quantile(s, 0.95),
		P99:    quantile(s, 0.99),
		Stddev: math.Sqrt(variance),
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ---------------------------------------------------------------------------
// Table rendering (experiment output)
// ---------------------------------------------------------------------------

// Table accumulates rows and renders a fixed-width text table, the format
// the benches print for each reproduced figure/table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v (floats get %.2f).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
