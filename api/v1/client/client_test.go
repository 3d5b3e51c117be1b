package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	apiv1 "snooze/api/v1"
	apiclient "snooze/api/v1/client"
	apiserver "snooze/api/v1/server"
)

// choppyWatchServer serves /v1/watch from a fixed event list but cuts every
// connection after at most two events — the flaky-link stand-in. It records
// the effective resume cursor of each connection.
type choppyWatchServer struct {
	mu    sync.Mutex
	froms []uint64
	total uint64 // events available, seqs 1..total
}

func (s *choppyWatchServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/watch" {
		http.NotFound(w, r)
		return
	}
	from := uint64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		from, _ = strconv.ParseUint(v, 10, 64)
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, _ := strconv.ParseUint(v, 10, 64)
		from = n + 1
	}
	s.mu.Lock()
	s.froms = append(s.froms, from)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fl := w.(http.Flusher)
	sent := 0
	for seq := from; seq <= s.total && sent < 2; seq++ {
		fmt.Fprintf(w, "id: %d\nevent: vm.state\ndata: {\"seq\":%d,\"type\":\"vm.state\"}\n\n", seq, seq)
		fl.Flush()
		sent++
	}
	// Return: the connection closes mid-stream, as a flaky link would.
}

func TestWatchResumeReconnectsFromLastSeq(t *testing.T) {
	backend := &choppyWatchServer{total: 6}
	srv := httptest.NewServer(backend)
	defer srv.Close()

	cli := apiclient.New(srv.URL, apiclient.WithTimeout(5*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	stream := cli.WatchResume(ctx, 1)
	defer stream.Close()

	var seqs []uint64
	for ev := range stream.Events() {
		seqs = append(seqs, ev.Seq)
		if len(seqs) == 6 {
			break
		}
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("gapless delivery broken: %v", seqs)
		}
	}
	if len(seqs) != 6 {
		t.Fatalf("delivered %d events, want 6", len(seqs))
	}

	backend.mu.Lock()
	froms := append([]uint64(nil), backend.froms...)
	backend.mu.Unlock()
	// Three connections, each resumed at lastSeq+1: 1, 3, 5 (a trailing
	// reconnect may have started before Close).
	if len(froms) < 3 || froms[0] != 1 || froms[1] != 3 || froms[2] != 5 {
		t.Fatalf("resume cursors: %v, want prefix [1 3 5]", froms)
	}
}

func TestWatchResumeSurvivesServerOutage(t *testing.T) {
	backend := &choppyWatchServer{total: 2}
	var gate sync.Mutex
	down := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gate.Lock()
		unavailable := down
		gate.Unlock()
		if unavailable {
			http.Error(w, `{"error":{"code":"unavailable","message":"starting"}}`, http.StatusServiceUnavailable)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cli := apiclient.New(srv.URL, apiclient.WithTimeout(5*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stream := cli.WatchResume(ctx, 1)
	defer stream.Close()

	// While the server errors, the stream stays open and retries.
	time.Sleep(300 * time.Millisecond)
	if err := stream.Err(); err == nil {
		t.Fatal("expected a recorded connection error during the outage")
	}
	gate.Lock()
	down = false
	gate.Unlock()

	var seqs []uint64
	for ev := range stream.Events() {
		seqs = append(seqs, ev.Seq)
		if len(seqs) == 2 {
			break
		}
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("post-outage delivery: %v", seqs)
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("error not cleared after successful delivery: %v", err)
	}
}

func TestWatchResumeEndsOnContextCancel(t *testing.T) {
	backend := &choppyWatchServer{total: 0} // nothing to deliver
	srv := httptest.NewServer(backend)
	defer srv.Close()
	cli := apiclient.New(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	stream := cli.WatchResume(ctx, 1)
	cancel()
	select {
	case _, open := <-stream.Events():
		if open {
			t.Fatal("event delivered after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after context cancel")
	}
}

// TestListsDecodeFromForeignShapes: the client reads list bodies its own
// encoder would not write — indented, keys in another order, escapes, an
// unknown field, chunked without a Content-Length — as encoding/json reads
// them, and reports a body encoding/json rejects.
func TestListsDecodeFromForeignShapes(t *testing.T) {
	bodies := map[string]string{
		"/v1/vms": `{
  "total": 2,
  "items": [
    {"used": {"netTxMbps": 1, "cpu": 0.25}, "node": "n1", "state": "running", "id": "vm-a", "zone": "a"},
    {"id": "vm-b", "state": "pending", "requested": {"cpu": 2, "memoryMb": 2048, "netRxMbps": 0, "netTxMbps": 0}}
  ]
}`,
		"/v1/nodes": `{"nextOffset":0,"total":1,"items":[{"idle":true,"vms":["vm-a"],"power":"on","id":"n1","capacity":{"cpu":8,"memoryMb":16384,"netRxMbps":1000,"netTxMbps":1000}}]}`,
	}
	const trailingGarbage = `{"items":[{"id":"vm-a"}],"total":1}}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := bodies[r.URL.Path]
		if r.URL.Query().Get("offset") == "1" { // the page ListVMsPage(1, 1) asks for below
			body = trailingGarbage
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		for len(body) > 0 { // flushed in pieces: chunked
			n := min(len(body), 64)
			_, _ = w.Write([]byte(body[:n]))
			w.(http.Flusher).Flush()
			body = body[n:]
		}
	}))
	defer srv.Close()
	cli := apiclient.New(srv.URL, apiclient.WithTimeout(5*time.Second))
	ctx := context.Background()

	vms, err := cli.ListVMs(ctx)
	wantVMs := []apiv1.VM{
		{ID: "vm-a", State: "running", Node: "n1", Used: apiv1.Resources{CPU: 0.25, NetTxMbps: 1}},
		{ID: "vm-b", State: "pending", Requested: apiv1.Resources{CPU: 2, MemoryMB: 2048}},
	}
	if err != nil || !reflect.DeepEqual(vms, wantVMs) {
		t.Errorf("ListVMs: %+v (err %v), want %+v", vms, err, wantVMs)
	}
	nodes, err := cli.ListNodes(ctx)
	wantNodes := []apiv1.Node{{ID: "n1", Power: "on", Idle: true, VMs: []string{"vm-a"},
		Capacity: apiv1.Resources{CPU: 8, MemoryMB: 16384, NetRxMbps: 1000, NetTxMbps: 1000}}}
	if err != nil || !reflect.DeepEqual(nodes, wantNodes) {
		t.Errorf("ListNodes: %+v (err %v), want %+v", nodes, err, wantNodes)
	}
	if page, err := cli.ListVMsPage(ctx, 1, 1); err == nil {
		t.Errorf("a body with trailing garbage decoded to %+v", page)
	}
}

// pagedServer answers every list route with body(offset) and counts the
// requests.
func pagedServer(t *testing.T, body func(offset int) string) (*httptest.Server, *atomic.Int64) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		offset, _ := strconv.Atoi(r.URL.Query().Get("offset"))
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(body(offset)))
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

// listAll runs each of the client's paged reads.
var listAll = map[string]func(*apiclient.Client, context.Context) (int, error){
	"ListVMs": func(c *apiclient.Client, ctx context.Context) (int, error) {
		l, err := c.ListVMs(ctx)
		return len(l), err
	},
	"ListNodes": func(c *apiclient.Client, ctx context.Context) (int, error) {
		l, err := c.ListNodes(ctx)
		return len(l), err
	},
	"ListSeries": func(c *apiclient.Client, ctx context.Context) (int, error) {
		l, err := c.ListSeries(ctx)
		return len(l), err
	},
}

// TestListsStopOnStuckCursor: a server whose next offset does not move past
// the page it answers is reported, not followed forever, whether its pages
// are empty or not.
func TestListsStopOnStuckCursor(t *testing.T) {
	for _, items := range []string{`[]`, `[{"id":"x"}]`} {
		for name, list := range listAll {
			srv, requests := pagedServer(t, func(offset int) string {
				return `{"items":` + items + `,"total":9,"nextOffset":3}`
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n, err := list(apiclient.New(srv.URL), ctx)
			if err == nil || ctx.Err() != nil {
				t.Errorf("%s over %s pages: %d items, err %v (context %v), want an error", name, items, n, err, ctx.Err())
			}
			cancel()
			if got := requests.Load(); got != 2 {
				t.Errorf("%s over %s pages: %d requests, want 2 (offsets 0 and 3)", name, items, got)
			}
		}
	}
}

// TestListsFollowPages: the paged reads join pages in order and read an
// empty collection as nil.
func TestListsFollowPages(t *testing.T) {
	for name, list := range listAll {
		srv, _ := pagedServer(t, func(offset int) string {
			if offset == 0 {
				return `{"items":[{"id":"a"},{"id":"b"}],"total":3,"nextOffset":2}`
			}
			return `{"items":[{"id":"c"}],"total":3}`
		})
		if n, err := list(apiclient.New(srv.URL), context.Background()); n != 3 || err != nil {
			t.Errorf("%s: %d items (err %v), want 3", name, n, err)
		}
	}
	srv, _ := pagedServer(t, func(int) string { return `{"items":[],"total":0}` })
	if vms, err := apiclient.New(srv.URL).ListVMs(context.Background()); vms != nil || err != nil {
		t.Errorf("empty collection: %#v (err %v), want nil", vms, err)
	}
}

// stubBackend places every submitted VM on one node.
type stubBackend struct{ apiv1.Backend }

func (stubBackend) SubmitVMs(_ context.Context, specs []apiv1.VMSpec) (apiv1.SubmitResult, error) {
	placed := make(map[string]string, len(specs))
	for _, s := range specs {
		placed[s.ID] = "n000"
	}
	return apiv1.SubmitResult{Placed: placed}, nil
}

// TestSubmitRoundTripAllocs pins what one single-VM SubmitVMs costs in
// allocations, client and server together, over a kept-alive connection to
// a /v1 server in front of a stub backend: both bodies take the hand codecs.
// With Go 1.24 it measures 108; with encoding/json at both ends of the wire
// for both bodies it measured 134.
func TestSubmitRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	srv := httptest.NewServer(apiserver.New(stubBackend{}).Handler())
	defer srv.Close()
	cli := apiclient.New(srv.URL)
	ctx := context.Background()
	one := []apiv1.VMSpec{{ID: "r0000001-0", Requested: apiv1.Resources{CPU: 0.4, MemoryMB: 1200}}}
	submit := func() {
		res, err := cli.SubmitVMs(ctx, one)
		if err != nil || len(res.Placed) != 1 {
			t.Fatalf("SubmitVMs: %+v, %v", res, err)
		}
	}
	submit() // dial
	allocs := testing.AllocsPerRun(200, submit)
	t.Logf("%v allocations per submission", allocs)
	if allocs > maxSubmitRoundTripAllocs {
		t.Errorf("%v allocations per submission, want <= %d", allocs, maxSubmitRoundTripAllocs)
	}
}

const maxSubmitRoundTripAllocs = 108

// TestSubmitDecodesForeignShapes: SubmitVMs reads a result its own server
// would not write — indented, keys in another order, escapes, an unknown
// field — as encoding/json reads it.
func TestSubmitDecodesForeignShapes(t *testing.T) {
	const body = `{
  "unplaced": ["vm-c"],
  "zone": "a",
  "placed": {
    "vm-b": "n\u0032",
    "vm-a": "n1"
  }
}`
	var got apiv1.SubmitRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil || r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("request: %v, Content-Type %q", err, r.Header.Get("Content-Type"))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(body))
	}))
	defer srv.Close()
	specs := []apiv1.VMSpec{{ID: "vm-a", Requested: apiv1.Resources{CPU: 1}}, {ID: "vm-b", TraceID: "diurnal"}, {ID: "vm-c"}}
	res, err := apiclient.New(srv.URL).SubmitVMs(context.Background(), specs)
	want := apiv1.SubmitResult{Placed: map[string]string{"vm-a": "n1", "vm-b": "n2"}, Unplaced: []string{"vm-c"}}
	if err != nil || !reflect.DeepEqual(res, want) {
		t.Errorf("SubmitVMs: %+v (err %v), want %+v", res, err, want)
	}
	if !reflect.DeepEqual(got.VMs, specs) {
		t.Errorf("server got %+v, want %+v", got.VMs, specs)
	}
}
