package apiv1

// Decision-trace implementation: the backend reduces /v1/traces to the
// deployment's shared tracer through QueryTraces.

import (
	"snooze/internal/obs"
)

// FromTraceRecord converts one finished span to the wire form.
func FromTraceRecord(r obs.Record) TraceSpan {
	sp := TraceSpan{
		TraceID: r.TraceID,
		SpanID:  r.SpanID,
		Parent:  r.Parent,
		Kind:    r.Kind,
		Entity:  r.Entity,
		Policy:  r.Policy,
		Target:  r.Target,
		Outcome: r.Outcome,
		StartNs: int64(r.Start),
		EndNs:   int64(r.End),
		Attrs:   r.Attrs,
	}
	if r.View != (obs.ViewEvidence{}) {
		sp.View = &TraceView{
			Gen:       r.View.Gen,
			Samples:   r.View.Samples,
			Fresh:     r.View.Fresh,
			Truncated: r.View.Truncated,
		}
	}
	for _, c := range r.Candidates {
		sp.Candidates = append(sp.Candidates, TraceCandidate{ID: c.ID, Chosen: c.Chosen, Reason: c.Reason})
	}
	return sp
}

// QueryTraces implements Backend.ListTraces over a tracer. A nil tracer
// yields an empty list — tracing being off is not an error.
func QueryTraces(t *obs.Tracer, q TraceQuery) TraceList {
	recs := t.Select(obs.Query{TraceID: q.TraceID, Entity: q.Entity, Kind: q.Kind})
	out := TraceList{Total: len(recs)}
	lo, hi, next := Page(len(recs), q.Limit, q.Offset)
	out.NextOffset = next
	out.Items = make([]TraceSpan, 0, hi-lo)
	for _, r := range recs[lo:hi] {
		out.Items = append(out.Items, FromTraceRecord(r))
	}
	return out
}
