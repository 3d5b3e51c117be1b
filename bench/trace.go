package main

// trace.go holds the harness-side tracing of the traced run: spans recorded
// from outside the program around the calls into each layer, the /deliver
// counters at the same boundaries, and the per-layer latency budget computed
// from them. Nothing here runs in an untraced (end-to-end) run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/rest"
	"snooze/internal/scheduling"
	"snooze/internal/scheduling/view"
	"snooze/internal/types"
)

// Span names, outermost first. A submit request's spans nest in this order;
// dispatch, placement, scheduling.place and rest.server repeat per VM.
const (
	spanSubmit    = "loadgen.submit"
	spanAPI       = "api.server"
	spanBackend   = "livebackend"
	spanDispatch  = "hierarchy.dispatch"
	spanPlacement = "hierarchy.placement"
	spanPolicy    = "scheduling.place"
	spanRest      = "rest.server"
)

// hspan is one recorded span. ID is the request ID for request-level spans
// and the VM ID (request ID + "-" + index) for per-VM spans, so a span's
// request is always the ID up to the last '-'.
type hspan struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	VMs     int    `json:"vms,omitempty"` // loadgen.submit only: VMs in the submission
}

// deliverCount accumulates /deliver traffic of one message kind.
type deliverCount struct {
	Requests int64 `json:"requests"`
	Bytes    int64 `json:"bytes"` // request + response bodies
}

// harnessTrace collects spans and counters while on is set.
type harnessTrace struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	spans   []hspan
	deliver map[string]*deliverCount
}

func newHarnessTrace() *harnessTrace {
	return &harnessTrace{epoch: time.Now(), deliver: make(map[string]*deliverCount)}
}

func (t *harnessTrace) now() time.Duration { return time.Since(t.epoch) }

func (t *harnessTrace) add(name, id string, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, hspan{Name: name, ID: id, StartNs: int64(start), EndNs: int64(end)})
	t.mu.Unlock()
}

// addSubmit records one loadgen.submit span of an n-VM submission.
func (t *harnessTrace) addSubmit(req string, n int, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, hspan{Name: spanSubmit, ID: req, StartNs: int64(start), EndNs: int64(end), VMs: n})
	t.mu.Unlock()
}

type reqIDKey struct{}

const reqIDHeader = "X-Bench-Req"

// withReqID tags a client call so the round tripper can label it.
func withReqID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// roundTripper copies the request ID from the call's context into a header,
// the only way to carry it through the typed client.
func (t *harnessTrace) roundTripper(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if id, ok := r.Context().Value(reqIDKey{}).(string); ok {
			r = r.Clone(r.Context())
			r.Header.Set(reqIDHeader, id)
		}
		return next.RoundTrip(r)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// apiMiddleware records api.server around the /v1 handler for labelled requests.
func (t *harnessTrace) apiMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqIDHeader)
		if id == "" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(spanAPI, id, start, t.now())
	})
}

// tracedBackend times the livebackend layer from its interface boundary.
type tracedBackend struct {
	apiv1.Backend
	t *harnessTrace
}

func (t *harnessTrace) backend(b apiv1.Backend) apiv1.Backend { return tracedBackend{Backend: b, t: t} }

func (b tracedBackend) SubmitVMs(ctx context.Context, specs []apiv1.VMSpec) (apiv1.SubmitResult, error) {
	if len(specs) == 0 || !b.t.on.Load() {
		return b.Backend.SubmitVMs(ctx, specs)
	}
	start := b.t.now()
	res, err := b.Backend.SubmitVMs(ctx, specs)
	b.t.add(spanBackend, requestOf(specs[0].ID), start, b.t.now())
	return res, err
}

// tracedPlacement is the timing decorator around the placement policy the
// harness hands to each manager.
type tracedPlacement struct {
	inner scheduling.PlacementPolicy
	t     *harnessTrace
}

func (t *harnessTrace) placement(p scheduling.PlacementPolicy) scheduling.PlacementPolicy {
	return tracedPlacement{inner: p, t: t}
}

func (p tracedPlacement) Name() string { return p.inner.Name() }

func (p tracedPlacement) Place(vm types.VMSpec, nodes []view.Node, ex *scheduling.Explain) (types.NodeID, bool) {
	if !p.t.on.Load() {
		return p.inner.Place(vm, nodes, ex)
	}
	start := p.t.now()
	node, ok := p.inner.Place(vm, nodes, ex)
	p.t.add(spanPolicy, string(vm.ID), start, p.t.now())
	return node, ok
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// restMiddleware counts every /deliver request by message kind and records
// rest.server around lc.start-vm deliveries, keyed by the envelope's VM ID.
func (t *harnessTrace) restMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/deliver" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var env rest.Envelope
		_ = json.Unmarshal(body, &env) // a bad envelope is the server's to refuse
		vm := ""
		if env.Kind == protocol.KindStartVM {
			var p struct {
				Spec struct {
					ID string `json:"id"`
				} `json:"spec"`
			}
			_ = json.Unmarshal(env.Payload, &p)
			vm = p.Spec.ID
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		next.ServeHTTP(cw, r)
		end := t.now()
		t.mu.Lock()
		c := t.deliver[env.Kind]
		if c == nil {
			c = &deliverCount{}
			t.deliver[env.Kind] = c
		}
		c.Requests++
		c.Bytes += int64(len(body)) + cw.n
		if vm != "" {
			t.spans = append(t.spans, hspan{Name: spanRest, ID: vm, StartNs: int64(start), EndNs: int64(end)})
		}
		t.mu.Unlock()
	})
}

// requestOf maps a VM ID to its request ID.
func requestOf(vmID string) string {
	if i := strings.LastIndexByte(vmID, '-'); i >= 0 {
		return vmID[:i]
	}
	return vmID
}

// harvester copies the program's own dispatch/placement records out of the
// tracer's bounded ring while the run is in progress (Tracer.Select; read,
// not modified), shifting them onto the harness clock.
type harvester struct {
	tracer *obs.Tracer
	t      *harnessTrace
	offset time.Duration // harness clock − runtime clock
	since  time.Duration // spans that started before this harness instant are left out
	seen   map[string]struct{}
	stop   chan struct{}
	done   chan struct{}
}

func startHarvester(tracer *obs.Tracer, t *harnessTrace, offset time.Duration) *harvester {
	h := &harvester{tracer: tracer, t: t, offset: offset, since: t.now(), seen: make(map[string]struct{}), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		// The ring keeps 2048 spans; at 10k placements/s that is 100 ms.
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				h.collect()
			case <-h.stop:
				h.collect()
				return
			}
		}
	}()
	return h
}

func (h *harvester) collect() {
	for kind, name := range map[string]string{obs.KindDispatch: spanDispatch, obs.KindPlacement: spanPlacement} {
		for _, rec := range h.tracer.Select(obs.Query{Kind: kind}) {
			if _, dup := h.seen[rec.SpanID]; dup || !strings.HasPrefix(rec.Entity, "vm/") || rec.Start+h.offset < h.since {
				continue
			}
			h.seen[rec.SpanID] = struct{}{}
			h.t.add(name, strings.TrimPrefix(rec.Entity, "vm/"), rec.Start+h.offset, rec.End+h.offset)
		}
	}
}

func (h *harvester) Stop() {
	close(h.stop)
	<-h.done
}

// budgetRow is one line of the latency budget.
type budgetRow struct {
	Layer string  `json:"layer"`
	SelfU float64 `json:"selfUs"`
	Share float64 `json:"sharePct"`
}

// budget is the per-layer latency budget of one traced run.
type budget struct {
	Requests      int                `json:"requests"` // submit requests with a complete span chain
	Skipped       int                `json:"skipped"`  // submit requests missing a span (ring eviction, window edge)
	VMsPerRequest float64            `json:"vmsPerRequest"`
	TotalUs       float64            `json:"totalUs"` // mean loadgen.submit of the joined requests
	Rows          []budgetRow        `json:"rows"`
	spanUs        map[string]float64 // mean duration by span name, every recorded span
	selfUs        map[string]float64 // mean self time per request by span name, joined requests
}

// budgetLayers are the budget's rows, in nesting order: the span whose self
// time a row shows, and what that self time consists of.
var budgetLayers = []struct{ span, label string }{
	{spanSubmit, "loadgen (client, HTTP round trip)"},
	{spanAPI, "api (server)"},
	{spanBackend, "livebackend"},
	{spanDispatch, "hierarchy.dispatch (GL)"},
	{spanPlacement, "hierarchy.placement (GM, gateway client)"},
	{spanPolicy, "scheduling (policy)"},
	{spanRest, "rest (node server, LC, hypervisor)"},
}

// computeBudget joins the spans of each submit request (request ID, then VM
// ID) and averages the self times: self = span − the part of it its children
// cover. A batch's per-VM spans run one after another, so they add up; when
// the program's span ring evicted some of a batch's VMs, the ones harvested
// stand for the rest. remote says whether placements cross the rest hop.
func (t *harnessTrace) computeBudget(remote bool) budget {
	t.mu.Lock()
	spans := append([]hspan(nil), t.spans...)
	t.mu.Unlock()
	dur := map[string]map[string]float64{}
	total := map[string]float64{}
	for _, s := range spans {
		if dur[s.Name] == nil {
			dur[s.Name] = map[string]float64{}
		}
		d := float64(s.EndNs-s.StartNs) / 1e3
		dur[s.Name][s.ID] = d
		total[s.Name] += d
	}
	b := budget{spanUs: map[string]float64{}, selfUs: map[string]float64{}}
	for name, byID := range dur {
		b.spanUs[name] = total[name] / float64(len(byID))
	}
	self := make([]float64, len(budgetLayers))
	vms := 0
	for _, s := range spans {
		if s.Name != spanSubmit {
			continue
		}
		submit := float64(s.EndNs-s.StartNs) / 1e3
		api, okA := dur[spanAPI][s.ID]
		backend, okB := dur[spanBackend][s.ID]
		var dispatch, placement, policy, restUs float64
		joined := 0
		for i := 0; i < s.VMs; i++ {
			id := fmt.Sprintf("%s-%d", s.ID, i)
			d, okD := dur[spanDispatch][id]
			p, okP := dur[spanPlacement][id]
			sc, okS := dur[spanPolicy][id]
			r, okR := dur[spanRest][id]
			if !okD || !okP || !okS || (remote && !okR) {
				continue
			}
			joined++
			dispatch, placement, policy, restUs = dispatch+d, placement+p, policy+sc, restUs+r
		}
		if !okA || !okB || joined == 0 {
			b.Skipped++
			continue
		}
		scale := float64(s.VMs) / float64(joined)
		dispatch, placement, policy, restUs = dispatch*scale, placement*scale, policy*scale, restUs*scale
		b.Requests++
		vms += s.VMs
		b.TotalUs += submit
		for i, v := range []float64{submit - api, api - backend, backend - dispatch, dispatch - placement, placement - policy - restUs, policy, restUs} {
			self[i] += v
		}
	}
	if b.Requests == 0 {
		return b
	}
	n := float64(b.Requests)
	b.TotalUs /= n
	b.VMsPerRequest = float64(vms) / n
	attributed := 0.0
	for i, layer := range budgetLayers {
		us := max(self[i]/n, 0) // children overlapping a parent's edge show in the remainder row
		attributed += us
		b.selfUs[layer.span] = us
		b.Rows = append(b.Rows, budgetRow{Layer: layer.label, SelfU: us, Share: 100 * us / b.TotalUs})
	}
	rest := b.TotalUs - attributed
	b.Rows = append(b.Rows, budgetRow{Layer: "unattributed", SelfU: rest, Share: 100 * rest / b.TotalUs})
	return b
}

// print writes the budget table.
func (b budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "\nlatency budget: %s (%d submit requests joined, %d skipped, %.1f VMs each, mean %.1f µs)\n", workload, b.Requests, b.Skipped, b.VMsPerRequest, b.TotalUs)
	fmt.Fprintf(w, "  %-44s %12s %8s\n", "layer", "self µs", "share")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-44s %12.1f %7.1f%%\n", r.Layer, r.SelfU, r.Share)
	}
}

// write stores the spans, counters and budget of one traced run.
func (t *harnessTrace) write(path, workload string, b budget) error {
	t.mu.Lock()
	spans := append([]hspan(nil), t.spans...)
	deliver := map[string]deliverCount{}
	for k, c := range t.deliver {
		deliver[k] = *c
	}
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	data, err := json.Marshal(struct {
		Workload string                  `json:"workload"`
		Budget   budget                  `json:"budget"`
		Deliver  map[string]deliverCount `json:"deliver"`
		Spans    []hspan                 `json:"spans"`
	}{workload, b, deliver, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// deliverTotals sums the /deliver counters; kind "" means every kind.
func (t *harnessTrace) deliverTotals(kind string) deliverCount {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out deliverCount
	for k, c := range t.deliver {
		if kind == "" || k == kind {
			out.Requests += c.Requests
			out.Bytes += c.Bytes
		}
	}
	return out
}
