// Package obs is the decision-tracing subsystem for the autonomic loop.
//
// Every autonomic action — a GL dispatch, a GM placement or relocation, a
// consolidation round and each of its migrations, an energy transition —
// opens a Span. Spans carry a trace ID that is propagated through the
// hierarchy on protocol messages, so a VM's submit→dispatch→place→boot chain
// and a detector-event→relocation→migration chain each share one trace, no
// matter how many managers the decision crossed.
//
// A span records structured decision evidence, not log lines: the policy
// that decided, the capacity-view generation (and its staleness/truncation
// flags) the decision was priced from, every candidate considered with its
// per-candidate rejection reason, the chosen target, and the outcome.
// Finished spans land in a lock-sharded bounded ring Store (the same
// discipline as internal/telemetry.Store): the hot path takes one shard
// lock, old traces are evicted by ring overwrite, and traces can be sampled
// down under load. A nil *Tracer — or a sampled-out trace — costs nothing:
// every Span method is a no-op on the zero value, so instrumentation sites
// record unconditionally.
//
// On Finish a span also feeds the wider observability surface: a
// "<kind>.duration.seconds" observation into the metrics Registry (exported
// as a Prometheus histogram on /metrics) and an optional journal emit hook
// (the decision.trace event), so watch streams correlate with /v1/traces.
package obs

import (
	"sync/atomic"
	"time"

	"snooze/internal/metrics"
)

// Span kinds used by the hierarchy. Free-form kinds are allowed; these are
// the ones the built-in instrumentation emits.
const (
	KindDispatch               = "dispatch"
	KindPlacement              = "placement"
	KindRelocation             = "relocation"
	KindMigration              = "migration"
	KindEnergy                 = "energy"
	KindConsolidationRound     = "consolidation.round"
	KindConsolidationMigration = "consolidation.migration"
)

// Config parameterizes a Tracer.
type Config struct {
	// Capacity is the per-shard ring size in finished spans (default 256).
	Capacity int
	// Shards is the shard count, rounded up to a power of two (default 8).
	// Spans are sharded by trace ID, so one trace lives in one shard.
	Shards int
	// Sample records every Nth trace (<=1 records all). The decision is
	// made at the trace root; children of a sampled-out root are no-ops.
	Sample int
	// Now supplies timestamps (defaults to wall-clock time since Tracer
	// creation; the sim passes its virtual clock).
	Now func() time.Duration
	// Emit, when set, is invoked once per finished span with the span's
	// entity and summary attributes — the hook the cluster uses to publish
	// decision.trace journal events without obs importing telemetry.
	Emit func(entity string, attrs map[string]string)
	// Metrics, when set, receives a "<kind>.duration.seconds" observation
	// per finished span, feeding the Prometheus latency histograms.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Now == nil {
		start := time.Now()
		c.Now = func() time.Duration { return time.Since(start) }
	}
	return c
}

// Tracer creates spans and owns the finished-span store. A nil *Tracer is a
// valid disabled tracer: StartTrace and StartSpan return no-op spans.
type Tracer struct {
	cfg    Config
	store  *Store
	ids    atomic.Uint64 // span/trace ID counter
	traces atomic.Uint64 // root counter, drives sampling
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, store: newStore(cfg.Shards, cfg.Capacity)}
}

// SpanContext identifies a span for parent/child linking and for carrying a
// trace across protocol messages.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context identifies a real (recorded) span.
func (c SpanContext) Valid() bool { return c.TraceID != "" && c.SpanID != "" }

// nextID returns the next span/trace ID: the counter as 16 lower-case hex
// digits, built in place so the string is the only allocation.
func (t *Tracer) nextID() string {
	const hex = "0123456789abcdef"
	var b [16]byte
	n := t.ids.Add(1)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hex[n&0xf]
		n >>= 4
	}
	return string(b[:])
}

// durationKey names the metric a finished span of kind observes. The
// built-in kinds have constant keys; only free-form kinds pay a concatenation.
func durationKey(kind string) string {
	switch kind {
	case KindDispatch:
		return KindDispatch + durationSuffix
	case KindPlacement:
		return KindPlacement + durationSuffix
	case KindRelocation:
		return KindRelocation + durationSuffix
	case KindMigration:
		return KindMigration + durationSuffix
	case KindEnergy:
		return KindEnergy + durationSuffix
	case KindConsolidationRound:
		return KindConsolidationRound + durationSuffix
	case KindConsolidationMigration:
		return KindConsolidationMigration + durationSuffix
	}
	return kind + durationSuffix
}

const durationSuffix = ".duration.seconds"

// StartTrace opens a root span, beginning a new trace. The sampling decision
// is made here: a sampled-out trace returns a no-op span whose context is
// invalid, so children (local or remote) are no-ops too.
func (t *Tracer) StartTrace(kind, entity string) Span {
	if t == nil {
		return Span{}
	}
	n := t.traces.Add(1)
	if t.cfg.Sample > 1 && n%uint64(t.cfg.Sample) != 0 {
		return Span{}
	}
	id := t.nextID()
	return Span{t: t, rec: &Record{
		TraceID: id,
		SpanID:  id,
		Kind:    kind,
		Entity:  entity,
		Start:   t.cfg.Now(),
	}}
}

// StartSpan opens a child span under parent. An invalid parent (the trace
// was sampled out, or the message arrived untraced) yields a no-op span.
func (t *Tracer) StartSpan(kind, entity string, parent SpanContext) Span {
	if t == nil || !parent.Valid() {
		return Span{}
	}
	return Span{t: t, rec: &Record{
		TraceID: parent.TraceID,
		SpanID:  t.nextID(),
		Parent:  parent.SpanID,
		Kind:    kind,
		Entity:  entity,
		Start:   t.cfg.Now(),
	}}
}

// Select returns finished spans matching q; see Store.Select.
func (t *Tracer) Select(q Query) []Record {
	if t == nil {
		return nil
	}
	return t.store.Select(q)
}

// Len returns the number of finished spans currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.store.Len()
}

// Span is one in-flight decision. The zero value is a valid no-op span —
// every method returns immediately — so call sites record evidence
// unconditionally and the disabled path stays allocation-free.
type Span struct {
	t   *Tracer
	rec *Record
}

// Enabled reports whether the span records anything.
func (s Span) Enabled() bool { return s.rec != nil }

// Context returns the span's identity for child linking and protocol
// propagation. Invalid (empty) for no-op spans.
func (s Span) Context() SpanContext {
	if s.rec == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// SetPolicy records the deciding policy's name.
func (s Span) SetPolicy(name string) {
	if s.rec != nil {
		s.rec.Policy = name
	}
}

// SetTarget records the chosen target (node, GM, ...).
func (s Span) SetTarget(id string) {
	if s.rec != nil {
		s.rec.Target = id
	}
}

// SetView records the capacity-view evidence the decision was priced from.
func (s Span) SetView(gen uint64, samples int, fresh, truncated bool) {
	if s.rec != nil {
		s.rec.View = ViewEvidence{Gen: gen, Samples: samples, Fresh: fresh, Truncated: truncated}
	}
}

// Candidate records one considered candidate; reason is empty unless the
// candidate was rejected.
func (s Span) Candidate(id string, chosen bool, reason string) {
	if s.rec != nil {
		s.rec.Candidates = append(s.rec.Candidates, Candidate{ID: id, Chosen: chosen, Reason: reason})
	}
}

// Annotate attaches a free-form key/value to the span.
func (s Span) Annotate(k, v string) {
	if s.rec == nil {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[k] = v
}

// Finish completes the span with an outcome, stores it, observes its
// duration into the metrics registry and fires the emit hook. The span must
// not be used afterwards.
func (s Span) Finish(outcome string) {
	if s.rec == nil {
		return
	}
	rec := s.rec
	rec.Outcome = outcome
	rec.End = s.t.cfg.Now()
	s.t.store.add(*rec)
	if s.t.cfg.Metrics != nil {
		s.t.cfg.Metrics.Observe(durationKey(rec.Kind), (rec.End - rec.Start).Seconds())
	}
	if s.t.cfg.Emit != nil {
		attrs := map[string]string{
			"trace":   rec.TraceID,
			"span":    rec.SpanID,
			"kind":    rec.Kind,
			"outcome": outcome,
		}
		if rec.Target != "" {
			attrs["target"] = rec.Target
		}
		s.t.cfg.Emit(rec.Entity, attrs)
	}
}
