// Package server mounts the api/v1 resource routes on net/http. It is
// backend-agnostic: hand it any apiv1.Backend (simulated cluster, live
// hierarchy, or even a remote client for chaining) and it serves the same
// /v1 contract — method-routed resource paths, JSON bodies (encoded by
// apiv1.AppendBody, sent with their Content-Length in one write), pagination
// on collections, a machine-readable error envelope and capped request bodies.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	apiv1 "snooze/api/v1"
)

// DefaultMaxBodyBytes caps POST bodies (a submission of thousands of VM
// specs fits comfortably; a runaway or hostile body does not).
const DefaultMaxBodyBytes = 1 << 20

// Server serves the /v1 control-plane routes from a Backend.
type Server struct {
	backend apiv1.Backend
	// MaxBodyBytes caps request bodies (DefaultMaxBodyBytes when zero).
	MaxBodyBytes int64
	// Timeout bounds each request's backend call (0 = no server-side bound;
	// the backend's own timeouts still apply).
	Timeout time.Duration
	// StreamContext, when non-nil, additionally bounds long-lived streams
	// (/v1/watch): cancelling it ends every open stream without touching
	// in-flight short requests — wire it to the process's shutdown signal so
	// http.Server.Shutdown can drain instead of waiting out SSE clients.
	StreamContext context.Context
}

// New creates a server for the backend.
func New(backend apiv1.Backend) *Server {
	return &Server{backend: backend}
}

// Handler returns the HTTP handler with every /v1 route mounted. Mount it
// at the mux root: route patterns carry the /v1 prefix themselves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/vms", s.handleListVMs)
	mux.HandleFunc("POST /v1/vms", s.handleSubmitVMs)
	mux.HandleFunc("GET /v1/vms/{id}", s.handleGetVM)
	mux.HandleFunc("GET /v1/nodes", s.handleListNodes)
	mux.HandleFunc("GET /v1/nodes/{id}", s.handleGetNode)
	mux.HandleFunc("POST /v1/nodes/{id}/fail", s.handleFailNode)
	mux.HandleFunc("GET /v1/topology", s.handleTopology)
	mux.HandleFunc("POST /v1/consolidations", s.handleConsolidate)
	mux.HandleFunc("GET /v1/consolidations/status", s.handleConsolidationCtl(apiv1.Backend.ConsolidationStatus))
	mux.HandleFunc("POST /v1/consolidations/start", s.handleConsolidationCtl(apiv1.Backend.StartConsolidation))
	mux.HandleFunc("POST /v1/consolidations/stop", s.handleConsolidationCtl(apiv1.Backend.StopConsolidation))
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/series", s.handleSeries)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, http.StatusNotFound, apiv1.CodeNotFound, "no such route")
	})
	return mux
}

func (s *Server) ctx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.Timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.Timeout)
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

func (s *Server) handleListVMs(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	limit, offset, ok := pageParams(w, r)
	if !ok {
		return
	}
	vms, err := s.backend.ListVMs(ctx)
	if err != nil {
		s.fail(w, err)
		return
	}
	lo, hi, next := apiv1.Page(len(vms), limit, offset)
	writeJSON(w, http.StatusOK, apiv1.VMList{Items: emptyAsSlice(vms[lo:hi]), Total: len(vms), NextOffset: next})
}

func (s *Server) handleSubmitVMs(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	var req apiv1.SubmitRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	result, err := s.backend.SubmitVMs(ctx, req.VMs)
	if err != nil {
		s.fail(w, err)
		return
	}
	// 201: the accepted VMs now exist as resources under /v1/vms.
	writeJSON(w, http.StatusCreated, result)
}

func (s *Server) handleGetVM(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	vm, err := s.backend.GetVM(ctx, r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, vm)
}

func (s *Server) handleListNodes(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	limit, offset, ok := pageParams(w, r)
	if !ok {
		return
	}
	nodes, err := s.backend.ListNodes(ctx)
	if err != nil {
		s.fail(w, err)
		return
	}
	lo, hi, next := apiv1.Page(len(nodes), limit, offset)
	writeJSON(w, http.StatusOK, apiv1.NodeList{Items: emptyAsSlice(nodes[lo:hi]), Total: len(nodes), NextOffset: next})
}

func (s *Server) handleGetNode(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	node, err := s.backend.GetNode(ctx, r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, node)
}

func (s *Server) handleFailNode(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	if err := s.backend.FailNode(ctx, r.PathValue("id")); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	deep, err := parseBool(r.URL.Query().Get("deep"))
	if err != nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalid, "deep: want true or false")
		return
	}
	topo, err := s.backend.Topology(ctx, deep)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, topo)
}

func (s *Server) handleConsolidate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	var req apiv1.ConsolidationRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	plan, err := s.backend.Consolidate(ctx, req)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, plan)
}

// handleConsolidationCtl serves the three online-optimizer control routes,
// parameterized by the Backend method they invoke.
func (s *Server) handleConsolidationCtl(call func(apiv1.Backend, context.Context) (apiv1.ConsolidationStatusList, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.ctx(r)
		defer cancel()
		list, err := call(s.backend, ctx)
		if err != nil {
			s.fail(w, err)
			return
		}
		list.Items = emptyAsSlice(list.Items)
		writeJSON(w, http.StatusOK, list)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	snap, err := s.backend.Metrics(ctx)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleTraces serves the decision-trace store: finished spans of the
// autonomic loop, filterable by trace ID, entity and span kind.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	limit, offset, ok := pageParams(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	list, err := s.backend.ListTraces(ctx, apiv1.TraceQuery{
		TraceID: q.Get("traceId"),
		Entity:  q.Get("entity"),
		Kind:    q.Get("kind"),
		Limit:   limit,
		Offset:  offset,
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	list.Items = emptyAsSlice(list.Items)
	writeJSON(w, http.StatusOK, list)
}

// handleSeries serves the telemetry store: without an entity parameter it
// lists the series keys (paginated); with entity+metric it runs a windowed,
// optionally downsampled query.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	q := r.URL.Query()
	limit, offset, ok := pageParams(w, r)
	if !ok {
		return
	}
	if q.Get("entity") == "" && q.Get("metric") == "" {
		keys, err := s.backend.ListSeries(ctx)
		if err != nil {
			s.fail(w, err)
			return
		}
		lo, hi, next := apiv1.Page(len(keys), limit, offset)
		writeJSON(w, http.StatusOK, apiv1.SeriesList{Items: emptyAsSlice(keys[lo:hi]), Total: len(keys), NextOffset: next})
		return
	}
	sq := apiv1.SeriesQuery{
		Entity: q.Get("entity"),
		Metric: q.Get("metric"),
		Agg:    q.Get("agg"),
		Limit:  limit,
		Offset: offset,
	}
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"fromNs", &sq.FromNs}, {"toNs", &sq.ToNs}, {"stepNs", &sq.StepNs}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, apiv1.CodeInvalid, p.name+": want an integer (nanoseconds)")
				return
			}
			*p.dst = n
		}
	}
	data, err := s.backend.QuerySeries(ctx, sq)
	if err != nil {
		s.fail(w, err)
		return
	}
	if data.Points == nil {
		data.Points = []apiv1.SeriesPoint{}
	}
	writeJSON(w, http.StatusOK, data)
}

// handleWatch serves the telemetry event stream as Server-Sent Events:
// retained events with seq >= ?from replay first, then the stream follows
// live until the client disconnects. Each event travels as
//
//	id: <seq>
//	event: <type>
//	data: <Event JSON>
//
// A consumer that falls too far behind receives a final "error" event and
// should reconnect with from = last seen seq + 1. The watch deliberately
// ignores the server's request timeout — streams live until either side
// hangs up.
//
// The standard SSE Last-Event-ID header is honoured as an alias for ?from=:
// a reconnecting EventSource (or the typed client's WatchResume) that saw
// event N resumes at N+1. An explicit ?from= query wins over the header.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalid, "from: want a non-negative integer")
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalid, "Last-Event-ID: want a non-negative integer")
			return
		}
		from = n + 1
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, apiv1.CodeInternal, "response writer cannot stream")
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	if s.StreamContext != nil {
		stop := context.AfterFunc(s.StreamContext, cancel)
		defer stop()
	}
	stream, err := s.backend.Watch(ctx, from)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer stream.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				if serr := stream.Err(); serr != nil {
					// json.Marshal keeps the payload valid JSON for any
					// error text (Go %q escapes are not JSON).
					msg, _ := json.Marshal(serr.Error())
					fmt.Fprintf(w, "event: error\ndata: %s\n\n", msg)
					flusher.Flush()
				}
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			flusher.Flush()
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	exp, err := s.backend.Experiment(ctx, r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, exp)
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

// readJSON decodes a capped request body; on failure it writes the 400
// envelope and returns false.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	maxBytes := s.MaxBodyBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, apiv1.CodeInvalid, "request body too large")
			return false
		}
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalid, "bad request body: "+err.Error())
		return false
	}
	return true
}

// fail maps backend errors onto status codes + envelope.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, apiv1.ErrNotFound):
		writeError(w, http.StatusNotFound, apiv1.CodeNotFound, err.Error())
	case errors.Is(err, apiv1.ErrInvalid):
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalid, err.Error())
	case errors.Is(err, apiv1.ErrUnsupported):
		writeError(w, http.StatusNotImplemented, apiv1.CodeUnsupported, err.Error())
	case errors.Is(err, apiv1.ErrUnavailable):
		writeError(w, http.StatusServiceUnavailable, apiv1.CodeUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, apiv1.CodeUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, apiv1.CodeInternal, err.Error())
	}
}

// Bodies are encoded into pooled buffers before the status line is sent, so
// a body that cannot be encoded becomes an error the client can read.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := bodyPool.Get().(*[]byte)
	defer func() {
		*buf = (*buf)[:0]
		bodyPool.Put(buf)
	}()
	var err error
	if *buf, err = apiv1.AppendBody(*buf, body); err != nil {
		// The envelope itself always encodes: no recursion past this call.
		writeError(w, http.StatusInternalServerError, apiv1.CodeInternal, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(status)
	_, _ = w.Write(*buf) // a client that has gone away is its own problem
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiv1.ErrorBody{Error: apiv1.ErrorDetail{Code: code, Message: msg}})
}

// pageParams parses ?limit=&offset=; on failure it writes the 400 envelope.
func pageParams(w http.ResponseWriter, r *http.Request) (limit, offset int, ok bool) {
	q := r.URL.Query()
	var err error
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalid, "limit: want a non-negative integer")
			return 0, 0, false
		}
	}
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalid, "offset: want a non-negative integer")
			return 0, 0, false
		}
	}
	return limit, offset, true
}

func parseBool(v string) (bool, error) {
	switch v {
	case "", "false", "0":
		return false, nil
	case "true", "1":
		return true, nil
	default:
		return false, errors.New("bad bool")
	}
}

// emptyAsSlice keeps JSON arrays as [] instead of null for empty pages.
func emptyAsSlice[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
