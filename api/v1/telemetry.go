package apiv1

// Telemetry implementations: the backend reduces /v1/series and /v1/watch to
// the deployment's shared telemetry hub through the helpers here.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"snooze/internal/telemetry"
)

// FromTelemetryEvent converts a journal event to the wire form.
func FromTelemetryEvent(ev telemetry.Event) Event {
	return Event{Seq: ev.Seq, AtNs: int64(ev.At), Type: ev.Type, Entity: ev.Entity, Attrs: ev.Attrs.Map()}
}

// ListHubSeries implements Backend.ListSeries over a telemetry hub.
func ListHubSeries(h *telemetry.Hub) []SeriesKey {
	keys := h.Store().Keys()
	out := make([]SeriesKey, len(keys))
	for i, k := range keys {
		out[i] = SeriesKey{Entity: k.Entity, Metric: k.Metric}
	}
	return out
}

// QueryHubSeries implements Backend.QuerySeries over a telemetry hub.
func QueryHubSeries(h *telemetry.Hub, q SeriesQuery) (SeriesData, error) {
	if q.Entity == "" || q.Metric == "" {
		return SeriesData{}, fmt.Errorf("%w: series query needs entity and metric", ErrInvalid)
	}
	if q.FromNs < 0 || (q.ToNs > 0 && q.ToNs < q.FromNs) {
		return SeriesData{}, fmt.Errorf("%w: bad window [%d, %d]", ErrInvalid, q.FromNs, q.ToNs)
	}
	var agg telemetry.Agg
	if q.Agg != "" {
		var err error
		if agg, err = telemetry.ParseAgg(q.Agg); err != nil {
			return SeriesData{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		if q.StepNs < 0 {
			return SeriesData{}, fmt.Errorf("%w: negative step", ErrInvalid)
		}
	} else if q.StepNs != 0 {
		return SeriesData{}, fmt.Errorf("%w: step needs an aggregation", ErrInvalid)
	}

	samples := h.Store().Query(q.Entity, q.Metric, time.Duration(q.FromNs), time.Duration(q.ToNs))
	if q.Agg != "" {
		samples = telemetry.Downsample(samples, time.Duration(q.StepNs), agg)
	}
	out := SeriesData{Entity: q.Entity, Metric: q.Metric, Agg: q.Agg, StepNs: q.StepNs, Total: len(samples)}
	if info, ok := h.Store().Info(q.Entity, q.Metric); ok {
		out.OldestNs = int64(info.OldestAt)
		out.NewestNs = int64(info.NewestAt)
		out.RawFromNs = int64(info.RawFrom)
		// The watermark is window-relative: this query is truncated when its
		// left edge precedes full-resolution coverage on a series that has
		// evicted raw samples (Summary.Truncated's rule).
		out.Truncated = info.Evicted > 0 && q.FromNs < int64(info.RawFrom)
		for _, t := range info.Tiers {
			out.Tiers = append(out.Tiers, SeriesTier{StepNs: int64(t.Step), Capacity: t.Capacity, Points: t.Points})
		}
	}
	lo, hi, next := Page(len(samples), q.Limit, q.Offset)
	out.NextOffset = next
	out.Points = make([]SeriesPoint, 0, hi-lo)
	for _, s := range samples[lo:hi] {
		out.Points = append(out.Points, SeriesPoint{AtNs: int64(s.At), Value: s.Value})
	}
	// The window's distribution, reduced through the store's quantile
	// sketches: count-weighted over decimated history, with the quantiles'
	// relative-error bound attached. The spec is per-call — SummarySpec
	// carries reusable scratch state and QueryHubSeries runs concurrently.
	spec := telemetry.SummarySpec{Percentiles: []float64{50, 95}}
	if sum, ok := h.Store().Reduce(q.Entity, q.Metric, time.Duration(q.FromNs), time.Duration(q.ToNs), &spec); ok {
		out.Summary = &SeriesWindowSummary{
			Count:         sum.Count,
			Weight:        sum.Weight,
			Min:           sum.Min,
			Max:           sum.Max,
			Avg:           sum.Avg,
			P50:           sum.Percentiles[0],
			P95:           sum.Percentiles[1],
			QuantileError: sum.QuantileError,
		}
	}
	return out, nil
}

// StreamPipe is the shared EventStream implementation behind every adapter —
// the hub subscription here, the client's SSE reader and its auto-reconnect
// wrapper: a delivery channel fed by one producer goroutine, a cancel hook
// ending the stream, and a guarded terminal error. Producers deliver with
// Send, record why the stream ended with SetErr, and call Finish exactly
// once when done.
type StreamPipe struct {
	ch     chan Event
	cancel context.CancelFunc

	mu  sync.Mutex
	err error
}

// NewStreamPipe creates a pipe whose Close invokes cancel.
func NewStreamPipe(cancel context.CancelFunc) *StreamPipe {
	return &StreamPipe{ch: make(chan Event), cancel: cancel}
}

// Events implements EventStream.
func (p *StreamPipe) Events() <-chan Event { return p.ch }

// Err implements EventStream.
func (p *StreamPipe) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Close implements EventStream. Idempotent.
func (p *StreamPipe) Close() { p.cancel() }

// SetErr records the stream's terminal (or most recent transient) error;
// nil clears it.
func (p *StreamPipe) SetErr(err error) {
	p.mu.Lock()
	p.err = err
	p.mu.Unlock()
}

// Send delivers ev unless ctx ends first; it reports whether the event was
// delivered. Producer-side only.
func (p *StreamPipe) Send(ctx context.Context, ev Event) bool {
	select {
	case p.ch <- ev:
		return true
	case <-ctx.Done():
		return false
	}
}

// Finish closes the delivery channel. Producer-side, exactly once.
func (p *StreamPipe) Finish() { close(p.ch) }

// WatchHub implements Backend.Watch over a telemetry hub. The stream follows
// the journal until ctx ends, Close is called or the subscription lags out.
func WatchHub(ctx context.Context, h *telemetry.Hub, from uint64) EventStream {
	ctx, cancel := context.WithCancel(ctx)
	p := NewStreamPipe(cancel)
	sub := h.Journal().Subscribe(from, 0)
	go func() {
		defer p.Finish()
		defer sub.Close()
		for {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					p.SetErr(sub.Err())
					return
				}
				if !p.Send(ctx, FromTelemetryEvent(ev)) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return p
}
