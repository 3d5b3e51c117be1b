// Package client is the typed Go client for the api/v1 control plane — what
// snoozectl and programmatic operators use against any /v1 server, whether
// it fronts a simulated cluster or a live snoozed deployment. The client
// itself implements apiv1.Backend, so code written against the interface
// runs unchanged in-process or across the network.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	apiv1 "snooze/api/v1"
)

// Client calls a remote /v1 server.
type Client struct {
	base string
	http *http.Client
}

var (
	_ apiv1.Backend       = (*Client)(nil)
	_ apiv1.FaultInjector = (*Client)(nil)
)

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithTimeout sets the per-request timeout (default 2 minutes; submissions
// wait for placement to finish).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.http = &http.Client{Timeout: d} }
}

// New creates a client for the server at baseURL (e.g.
// "http://localhost:7001").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 2 * time.Minute},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do performs one request and decodes the response or the error envelope.
// dst may be nil for responses without a body (204).
func (c *Client) do(ctx context.Context, method, path string, query url.Values, in, dst any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	if dst == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyPool.Put(buf)
	}()
	if n := resp.ContentLength; 0 < n && n <= maxPresizedBody {
		buf.Grow(int(n))
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("apiv1: read %s %s response: %w", method, path, err)
	}
	return apiv1.DecodeBody(buf.Bytes(), dst)
}

// Response bodies are read into pooled buffers and decoded from there
// (apiv1.DecodeBody copies what it keeps). A declared Content-Length sizes
// the buffer up front, up to maxPresizedBody: beyond it the peer's word is
// not taken and the buffer grows with what actually arrives.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPresizedBody = 16 << 20

// decodeError rebuilds a typed error from the envelope, so errors.Is against
// the apiv1 sentinels works across the wire.
func decodeError(resp *http.Response) error {
	var envelope apiv1.ErrorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	msg := strings.TrimSpace(string(data))
	if err := json.Unmarshal(data, &envelope); err == nil && envelope.Error.Message != "" {
		msg = envelope.Error.Message
	}
	var sentinel error
	switch envelope.Error.Code {
	case apiv1.CodeNotFound:
		sentinel = apiv1.ErrNotFound
	case apiv1.CodeInvalid:
		sentinel = apiv1.ErrInvalid
	case apiv1.CodeUnsupported:
		sentinel = apiv1.ErrUnsupported
	case apiv1.CodeUnavailable:
		sentinel = apiv1.ErrUnavailable
	default:
		switch resp.StatusCode {
		case http.StatusNotFound:
			sentinel = apiv1.ErrNotFound
		case http.StatusBadRequest:
			sentinel = apiv1.ErrInvalid
		case http.StatusNotImplemented:
			sentinel = apiv1.ErrUnsupported
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			sentinel = apiv1.ErrUnavailable
		}
	}
	if sentinel != nil {
		return fmt.Errorf("%w: %s: %s", sentinel, resp.Status, msg)
	}
	return fmt.Errorf("apiv1: %s: %s", resp.Status, msg)
}

// ---------------------------------------------------------------------------
// Backend implementation
// ---------------------------------------------------------------------------

// SubmitVMs implements apiv1.Backend.
func (c *Client) SubmitVMs(ctx context.Context, specs []apiv1.VMSpec) (apiv1.SubmitResult, error) {
	var out apiv1.SubmitResult
	err := c.do(ctx, http.MethodPost, "/v1/vms", nil, apiv1.SubmitRequest{VMs: specs}, &out)
	return out, err
}

// ListVMsPage fetches one page of the VM collection (limit <= 0 = all).
func (c *Client) ListVMsPage(ctx context.Context, limit, offset int) (apiv1.VMList, error) {
	var out apiv1.VMList
	err := c.do(ctx, http.MethodGet, "/v1/vms", pageQuery(limit, offset), nil, &out)
	return out, err
}

// ListVMs implements apiv1.Backend, paging through the full collection.
func (c *Client) ListVMs(ctx context.Context) ([]apiv1.VM, error) {
	var all []apiv1.VM
	offset := 0
	for {
		page, err := c.ListVMsPage(ctx, 0, offset)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Items...)
		if page.NextOffset == 0 {
			return all, nil
		}
		offset = page.NextOffset
	}
}

// GetVM implements apiv1.Backend.
func (c *Client) GetVM(ctx context.Context, id string) (apiv1.VM, error) {
	var out apiv1.VM
	err := c.do(ctx, http.MethodGet, "/v1/vms/"+url.PathEscape(id), nil, nil, &out)
	return out, err
}

// ListNodesPage fetches one page of the node collection.
func (c *Client) ListNodesPage(ctx context.Context, limit, offset int) (apiv1.NodeList, error) {
	var out apiv1.NodeList
	err := c.do(ctx, http.MethodGet, "/v1/nodes", pageQuery(limit, offset), nil, &out)
	return out, err
}

// ListNodes implements apiv1.Backend.
func (c *Client) ListNodes(ctx context.Context) ([]apiv1.Node, error) {
	var all []apiv1.Node
	offset := 0
	for {
		page, err := c.ListNodesPage(ctx, 0, offset)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Items...)
		if page.NextOffset == 0 {
			return all, nil
		}
		offset = page.NextOffset
	}
}

// GetNode implements apiv1.Backend.
func (c *Client) GetNode(ctx context.Context, id string) (apiv1.Node, error) {
	var out apiv1.Node
	err := c.do(ctx, http.MethodGet, "/v1/nodes/"+url.PathEscape(id), nil, nil, &out)
	return out, err
}

// FailNode implements apiv1.FaultInjector; a server whose backend has no
// fault injector answers ErrUnsupported.
func (c *Client) FailNode(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/nodes/"+url.PathEscape(id)+"/fail", nil, nil, nil)
}

// Topology implements apiv1.Backend.
func (c *Client) Topology(ctx context.Context, deep bool) (apiv1.Topology, error) {
	var out apiv1.Topology
	q := url.Values{}
	if deep {
		q.Set("deep", "true")
	}
	err := c.do(ctx, http.MethodGet, "/v1/topology", q, nil, &out)
	return out, err
}

// Consolidate implements apiv1.Backend.
func (c *Client) Consolidate(ctx context.Context, req apiv1.ConsolidationRequest) (apiv1.ConsolidationPlan, error) {
	var out apiv1.ConsolidationPlan
	err := c.do(ctx, http.MethodPost, "/v1/consolidations", nil, req, &out)
	return out, err
}

// ConsolidationStatus implements apiv1.Backend.
func (c *Client) ConsolidationStatus(ctx context.Context) (apiv1.ConsolidationStatusList, error) {
	var out apiv1.ConsolidationStatusList
	err := c.do(ctx, http.MethodGet, "/v1/consolidations/status", nil, nil, &out)
	return out, err
}

// StartConsolidation implements apiv1.Backend.
func (c *Client) StartConsolidation(ctx context.Context) (apiv1.ConsolidationStatusList, error) {
	var out apiv1.ConsolidationStatusList
	err := c.do(ctx, http.MethodPost, "/v1/consolidations/start", nil, nil, &out)
	return out, err
}

// StopConsolidation implements apiv1.Backend.
func (c *Client) StopConsolidation(ctx context.Context) (apiv1.ConsolidationStatusList, error) {
	var out apiv1.ConsolidationStatusList
	err := c.do(ctx, http.MethodPost, "/v1/consolidations/stop", nil, nil, &out)
	return out, err
}

// Metrics implements apiv1.Backend.
func (c *Client) Metrics(ctx context.Context) (apiv1.MetricsSnapshot, error) {
	var out apiv1.MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, nil, &out)
	return out, err
}

// ListSeriesPage fetches one page of the telemetry series key listing.
func (c *Client) ListSeriesPage(ctx context.Context, limit, offset int) (apiv1.SeriesList, error) {
	var out apiv1.SeriesList
	err := c.do(ctx, http.MethodGet, "/v1/series", pageQuery(limit, offset), nil, &out)
	return out, err
}

// ListSeries implements apiv1.Backend, paging through the key listing.
func (c *Client) ListSeries(ctx context.Context) ([]apiv1.SeriesKey, error) {
	var all []apiv1.SeriesKey
	offset := 0
	for {
		page, err := c.ListSeriesPage(ctx, 0, offset)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Items...)
		if page.NextOffset == 0 {
			return all, nil
		}
		offset = page.NextOffset
	}
}

// QuerySeries implements apiv1.Backend.
func (c *Client) QuerySeries(ctx context.Context, q apiv1.SeriesQuery) (apiv1.SeriesData, error) {
	vals := pageQuery(q.Limit, q.Offset)
	vals.Set("entity", q.Entity)
	vals.Set("metric", q.Metric)
	if q.FromNs != 0 {
		vals.Set("fromNs", strconv.FormatInt(q.FromNs, 10))
	}
	if q.ToNs != 0 {
		vals.Set("toNs", strconv.FormatInt(q.ToNs, 10))
	}
	if q.Agg != "" {
		vals.Set("agg", q.Agg)
	}
	if q.StepNs != 0 {
		vals.Set("stepNs", strconv.FormatInt(q.StepNs, 10))
	}
	var out apiv1.SeriesData
	err := c.do(ctx, http.MethodGet, "/v1/series", vals, nil, &out)
	return out, err
}

// ListTraces implements apiv1.Backend.
func (c *Client) ListTraces(ctx context.Context, q apiv1.TraceQuery) (apiv1.TraceList, error) {
	vals := pageQuery(q.Limit, q.Offset)
	if q.TraceID != "" {
		vals.Set("traceId", q.TraceID)
	}
	if q.Entity != "" {
		vals.Set("entity", q.Entity)
	}
	if q.Kind != "" {
		vals.Set("kind", q.Kind)
	}
	var out apiv1.TraceList
	err := c.do(ctx, http.MethodGet, "/v1/traces", vals, nil, &out)
	return out, err
}

// Watch implements apiv1.Backend: it consumes the server's /v1/watch SSE
// stream, replaying retained events with seq >= from before following live.
// The stream is exempt from the client's per-request timeout; cancel ctx or
// Close it to stop. On ErrLagged-style terminal events, reconnect with
// from = last seen seq + 1.
func (c *Client) Watch(ctx context.Context, from uint64) (apiv1.EventStream, error) {
	u := c.base + "/v1/watch"
	if from > 0 {
		u += "?from=" + strconv.FormatUint(from, 10)
	}
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	// A watch outlives any sane request timeout: reuse the transport but not
	// the client-wide deadline. Lifetime is governed by ctx alone.
	hc := &http.Client{Transport: c.http.Transport, CheckRedirect: c.http.CheckRedirect, Jar: c.http.Jar}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		err := decodeError(resp)
		cancel()
		return nil, err
	}
	s := apiv1.NewStreamPipe(cancel)
	go func() {
		defer s.Finish()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		event, data := "", ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if event == "error" {
					var msg string
					_ = json.Unmarshal([]byte(data), &msg)
					s.SetErr(fmt.Errorf("apiv1: watch terminated by server: %s", msg))
					return
				}
				if data != "" {
					var ev apiv1.Event
					if err := json.Unmarshal([]byte(data), &ev); err == nil {
						if !s.Send(ctx, ev) {
							return
						}
					}
				}
				event, data = "", ""
			}
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			s.SetErr(err)
		}
	}()
	return s, nil
}

// Reconnect backoff bounds for WatchResume.
const (
	watchBackoffMin = 100 * time.Millisecond
	watchBackoffMax = 5 * time.Second
)

// WatchResume is Watch with automatic reconnection: whenever the underlying
// SSE stream ends — a lagged-out subscription, a dropped connection, a
// server restart — it reconnects with from = last seen seq + 1 under bounded
// exponential backoff (100ms doubling to 5s, reset by the next delivered
// event), so consumers see a gapless sequence as long as the server's
// journal still retains the missed range. The stream ends only when ctx is
// cancelled or Close is called; Err reports the last connection error when
// the context ended mid-outage, nil after a clean Close.
func (c *Client) WatchResume(ctx context.Context, from uint64) apiv1.EventStream {
	ctx, cancel := context.WithCancel(ctx)
	s := apiv1.NewStreamPipe(cancel)
	go func() {
		defer s.Finish()
		next := from
		backoff := watchBackoffMin
		sleep := func() bool {
			t := time.NewTimer(backoff)
			defer t.Stop()
			if backoff *= 2; backoff > watchBackoffMax {
				backoff = watchBackoffMax
			}
			select {
			case <-t.C:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for ctx.Err() == nil {
			inner, err := c.Watch(ctx, next)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				s.SetErr(err)
				if !sleep() {
					return
				}
				continue
			}
			for ev := range inner.Events() {
				if !s.Send(ctx, ev) {
					inner.Close()
					return
				}
				next = ev.Seq + 1
				backoff = watchBackoffMin
				s.SetErr(nil)
			}
			// Release the finished connection's context before reconnecting —
			// a long-lived resume must not accumulate one cancel registration
			// per outage.
			inner.Close()
			if ctx.Err() != nil {
				return
			}
			// Stream ended server-side (lag cut-off, shutdown, broken pipe):
			// remember why and reconnect from the next sequence number.
			s.SetErr(inner.Err())
			if !sleep() {
				return
			}
		}
	}()
	return s
}

// Experiment reproduces one evaluation table on the server (quick scale);
// unknown IDs return ErrNotFound.
func (c *Client) Experiment(ctx context.Context, id string) (apiv1.Experiment, error) {
	var out apiv1.Experiment
	err := c.do(ctx, http.MethodGet, "/v1/experiments/"+url.PathEscape(id), nil, nil, &out)
	return out, err
}

// Healthz reports server liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil, &struct{}{})
}

func pageQuery(limit, offset int) url.Values {
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if offset > 0 {
		q.Set("offset", strconv.Itoa(offset))
	}
	return q
}
