package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	apiv1 "snooze/api/v1"
	apiclient "snooze/api/v1/client"
	"snooze/api/v1/livebackend"
	"snooze/internal/cluster"
	"snooze/internal/protocol"
	"snooze/internal/simkernel"
	"snooze/internal/transport"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// fixture wires a settled simulated cluster behind an httptest /v1 server
// with a typed client — the end-to-end client → server → livebackend →
// hierarchy path.
type fixture struct {
	c       *cluster.Cluster
	backend apiv1.Backend
	srv     *httptest.Server
	cli     *apiclient.Client
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	c := cluster.New(cluster.DefaultConfig(workload.Grid5000Topology(8, 2), 42))
	c.Settle(30 * time.Second)
	if c.Leader() == nil {
		t.Fatal("hierarchy did not form")
	}
	backend := c.API(0)
	srv := httptest.NewServer(New(backend).Handler())
	t.Cleanup(srv.Close)
	return &fixture{c: c, backend: backend, srv: srv, cli: apiclient.New(srv.URL)}
}

func TestSubmitAndWaitEndToEnd(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()

	specs := make([]apiv1.VMSpec, 5)
	for i := range specs {
		specs[i] = apiv1.VMSpec{
			ID:        fmt.Sprintf("vm-%02d", i),
			Requested: apiv1.Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10},
		}
	}
	result, err := f.cli.SubmitVMs(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Placed)+len(result.Unplaced) != len(specs) {
		t.Fatalf("submit outcome incomplete: %+v", result)
	}
	if len(result.Placed) != len(specs) {
		t.Fatalf("expected all VMs placed on an empty 8-node cluster: %+v", result)
	}

	// Let the VMs boot into the running state.
	f.c.Settle(30 * time.Second)

	vms, err := f.cli.ListVMs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != len(specs) {
		t.Fatalf("ListVMs: got %d, want %d", len(vms), len(specs))
	}
	for i := 1; i < len(vms); i++ {
		if vms[i-1].ID >= vms[i].ID {
			t.Fatalf("ListVMs not sorted: %q >= %q", vms[i-1].ID, vms[i].ID)
		}
	}

	vm, err := f.cli.GetVM(ctx, "vm-03")
	if err != nil {
		t.Fatal(err)
	}
	if vm.Node != result.Placed["vm-03"] {
		t.Fatalf("GetVM node %q, submit said %q", vm.Node, result.Placed["vm-03"])
	}
	if vm.State != types.VMRunning.String() {
		t.Fatalf("vm-03 state %q after settle", vm.State)
	}

	nodes, err := f.cli.ListNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 8 {
		t.Fatalf("ListNodes: got %d, want 8", len(nodes))
	}
	node, err := f.cli.GetNode(ctx, vm.Node)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range node.VMs {
		if id == "vm-03" {
			found = true
		}
	}
	if !found {
		t.Fatalf("node %s does not list vm-03: %+v", node.ID, node.VMs)
	}
}

func TestTopologyShallowAndDeep(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()

	topo, err := f.cli.Topology(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if topo.GL == "" || len(topo.GMs) == 0 {
		t.Fatalf("topology: %+v", topo)
	}
	for _, gm := range topo.GMs {
		if len(gm.LCs) != 0 {
			t.Fatal("shallow topology must not include LC detail")
		}
	}

	deep, err := f.cli.Topology(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	lcs := 0
	for _, gm := range deep.GMs {
		lcs += len(gm.LCs)
	}
	if lcs != 8 {
		t.Fatalf("deep topology lists %d LCs, want 8", lcs)
	}
}

func TestConsolidateMetricsAndFail(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()

	specs := make([]apiv1.VMSpec, 6)
	for i := range specs {
		specs[i] = apiv1.VMSpec{
			ID:        fmt.Sprintf("cvm-%02d", i),
			Requested: apiv1.Resources{CPU: 0.5, MemoryMB: 512, NetRxMbps: 5, NetTxMbps: 5},
		}
	}
	if _, err := f.cli.SubmitVMs(ctx, specs); err != nil {
		t.Fatal(err)
	}
	f.c.Settle(30 * time.Second)

	plan, err := f.cli.Consolidate(ctx, apiv1.ConsolidationRequest{Algorithm: apiv1.AlgorithmFFD})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm != apiv1.AlgorithmFFD || plan.VMs != len(specs) {
		t.Fatalf("plan: %+v", plan)
	}
	if plan.HostsAfter > plan.HostsBefore {
		t.Fatalf("consolidation made things worse: %+v", plan)
	}

	if _, err := f.cli.Consolidate(ctx, apiv1.ConsolidationRequest{Algorithm: "simulated-annealing"}); !errors.Is(err, apiv1.ErrInvalid) {
		t.Fatalf("unknown algorithm: %v", err)
	}

	snap, err := f.cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["gl.submissions"] == 0 {
		t.Fatalf("metrics missing gl.submissions: %+v", snap.Counters)
	}

	// Fault injection works on the simulated backend. /v1 shows the
	// hierarchy's view: the node's GM drops it once LCTimeout passes without
	// a heartbeat.
	victim := "lc-0000"
	if err := f.cli.FailNode(ctx, victim); err != nil {
		t.Fatal(err)
	}
	f.c.Settle(30 * time.Second)
	if node, err := f.cli.GetNode(ctx, victim); !errors.Is(err, apiv1.ErrNotFound) {
		t.Fatalf("failed node still listed after LCTimeout: %+v %v", node, err)
	}
	if err := f.cli.FailNode(ctx, "no-such-node"); !errors.Is(err, apiv1.ErrNotFound) {
		t.Fatalf("fail unknown node: %v", err)
	}
}

func TestPagination(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()

	page, err := f.cli.ListNodesPage(ctx, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 3 || page.Total != 8 || page.NextOffset != 3 {
		t.Fatalf("first page: items=%d total=%d next=%d", len(page.Items), page.Total, page.NextOffset)
	}
	var all []string
	offset := 0
	for {
		page, err := f.cli.ListNodesPage(ctx, 3, offset)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range page.Items {
			all = append(all, n.ID)
		}
		if page.NextOffset == 0 {
			break
		}
		offset = page.NextOffset
	}
	if len(all) != 8 {
		t.Fatalf("paged walk saw %d nodes, want 8", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("paged walk out of order: %v", all)
		}
	}
}

func TestErrorEnvelopes(t *testing.T) {
	f := newFixture(t)

	get := func(path string) (*http.Response, apiv1.ErrorBody) {
		t.Helper()
		resp, err := http.Get(f.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", path, ct)
		}
		var body apiv1.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: bad envelope: %v", path, err)
		}
		return resp, body
	}

	resp, body := get("/v1/vms/no-such-vm")
	if resp.StatusCode != http.StatusNotFound || body.Error.Code != apiv1.CodeNotFound {
		t.Fatalf("missing vm: %d %+v", resp.StatusCode, body)
	}
	resp, body = get("/v1/no-such-route")
	if resp.StatusCode != http.StatusNotFound || body.Error.Code != apiv1.CodeNotFound {
		t.Fatalf("unknown route: %d %+v", resp.StatusCode, body)
	}
	resp, body = get("/v1/topology?deep=banana")
	if resp.StatusCode != http.StatusBadRequest || body.Error.Code != apiv1.CodeInvalid {
		t.Fatalf("bad deep param: %d %+v", resp.StatusCode, body)
	}
	resp, body = get("/v1/nodes?limit=-1")
	if resp.StatusCode != http.StatusBadRequest || body.Error.Code != apiv1.CodeInvalid {
		t.Fatalf("bad limit: %d %+v", resp.StatusCode, body)
	}

	// Malformed body → 400 envelope.
	post, err := http.Post(f.srv.URL+"/v1/vms", "application/json", strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status: %d", post.StatusCode)
	}

	// Validation errors survive the wire as typed sentinels.
	ctx := context.Background()
	if _, err := f.cli.SubmitVMs(ctx, nil); !errors.Is(err, apiv1.ErrInvalid) {
		t.Fatalf("empty batch: %v", err)
	}
	dup := []apiv1.VMSpec{{ID: "a"}, {ID: "a"}}
	if _, err := f.cli.SubmitVMs(ctx, dup); !errors.Is(err, apiv1.ErrInvalid) {
		t.Fatalf("duplicate IDs: %v", err)
	}
}

func TestBodyCap(t *testing.T) {
	f := newFixture(t)
	srv := httptest.NewServer(func() http.Handler {
		s := New(f.backend)
		s.MaxBodyBytes = 256
		return s.Handler()
	}())
	defer srv.Close()

	big := strings.NewReader(`{"vms":[{"id":"` + strings.Repeat("x", 1024) + `"}]}`)
	resp, err := http.Post(srv.URL+"/v1/vms", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status: %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	f := newFixture(t)
	if err := f.cli.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// unsupportedBackend is a backend without a FaultInjector, as a live
// deployment's is.
type unsupportedBackend struct{ apiv1.Backend }

func TestUnsupportedMapsTo501(t *testing.T) {
	srv := httptest.NewServer(New(unsupportedBackend{}).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/nodes/n1/fail", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d body %s", resp.StatusCode, data)
	}
	if err := apiclient.New(srv.URL).FailNode(context.Background(), "n1"); !errors.Is(err, apiv1.ErrUnsupported) {
		t.Fatalf("client mapping: %v", err)
	}
}

// TestNotLeaderMapsTo503: a submission the GL refuses as not the leader,
// again after the backend asked the entry point once more, is a 503
// envelope: the control plane cannot serve now, no server fault.
func TestNotLeaderMapsTo503(t *testing.T) {
	bus := transport.NewBus(simkernel.NewWallRuntime(), transport.Config{})
	var mu sync.Mutex
	var queries int
	var demoted bool
	bus.Register("ep:0", func(req *transport.Request) {
		mu.Lock()
		queries++
		mu.Unlock()
		req.Respond(protocol.GLQueryResponse{Addr: "mgr:gm-00", Known: true})
	})
	bus.Register("mgr:gm-00", func(req *transport.Request) {
		mu.Lock()
		defer mu.Unlock()
		if demoted {
			req.RespondErr(protocol.ErrNotLeader)
			return
		}
		req.Respond(protocol.SubmitResponse{Placed: map[types.VMID]types.NodeID{"vm-1": "n1"}})
	})
	srv := httptest.NewServer(New(livebackend.New(livebackend.Config{Bus: bus, CallTimeout: 5 * time.Second})).Handler())
	defer srv.Close()
	post := func() (*http.Response, apiv1.ErrorBody) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/vms", "application/json", strings.NewReader(`{"vms":[{"id":"vm-1"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env apiv1.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp, env
	}
	if resp, _ := post(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit to the GL: status %d", resp.StatusCode)
	}
	mu.Lock()
	demoted = true
	mu.Unlock()
	resp, env := post()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != apiv1.CodeUnavailable ||
		!strings.Contains(env.Error.Message, protocol.ErrNotLeader.Error()) {
		t.Fatalf("submit to a demoted GL: status %d %+v, want 503 naming the refusal", resp.StatusCode, env)
	}
	mu.Lock()
	defer mu.Unlock()
	if queries != 2 {
		t.Fatalf("%d GL queries, want 2: the first submit's and one after the refusal", queries)
	}
}

// nanBackend lists one VM whose measured usage cannot be encoded as JSON.
type nanBackend struct{ apiv1.Backend }

func (nanBackend) ListVMs(context.Context) ([]apiv1.VM, error) {
	return []apiv1.VM{{ID: "vm-1", State: "running", Used: apiv1.Resources{CPU: math.NaN()}}}, nil
}

func (nanBackend) GetVM(context.Context, string) (apiv1.VM, error) {
	return apiv1.VM{ID: "vm-1", State: "running", Used: apiv1.Resources{CPU: math.NaN()}}, nil
}

// TestUnencodableBodyIs500: a body that cannot be encoded is answered with
// the 500 error envelope — on a list route and on a route without a list
// codec — not with a 200 status line and no body.
func TestUnencodableBodyIs500(t *testing.T) {
	srv := httptest.NewServer(New(nanBackend{}).Handler())
	defer srv.Close()
	for _, path := range []string{"/v1/vms", "/v1/vms/vm-1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var envelope apiv1.ErrorBody
		if err := json.Unmarshal(data, &envelope); resp.StatusCode != http.StatusInternalServerError ||
			err != nil || envelope.Error.Code != apiv1.CodeInternal || envelope.Error.Message == "" {
			t.Errorf("GET %s: status %d body %q, want 500 with the error envelope", path, resp.StatusCode, data)
		}
	}
	cli := apiclient.New(srv.URL)
	if _, err := cli.ListVMs(context.Background()); err == nil || errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "500") {
		t.Errorf("client ListVMs: %v, want the server's 500", err)
	}
}

// TestListBodiesAreEncoderBytes: what GET /v1/vms and GET /v1/nodes put on
// the wire is what json.Encoder writes for the list — so a client that
// predates the list codecs reads it — sent whole, with its length.
func TestListBodiesAreEncoderBytes(t *testing.T) {
	f := newFixture(t)
	if _, err := f.cli.SubmitVMs(context.Background(), []apiv1.VMSpec{
		{ID: "vm-a", Requested: apiv1.Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10}},
		{ID: "vm-b", Requested: apiv1.Resources{CPU: 0.3, MemoryMB: 333.3, NetRxMbps: 1, NetTxMbps: 1}, TraceID: "diurnal"},
	}); err != nil {
		t.Fatal(err)
	}
	f.c.Settle(30 * time.Second) // boot, then a monitor report with measured usage
	check := func(path string, list any) {
		t.Helper()
		resp, err := http.Get(f.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("GET %s: status %d, Content-Length %d for %d bytes, transfer encoding %v",
				path, resp.StatusCode, resp.ContentLength, len(data), resp.TransferEncoding)
		}
		// The parent commit's client: json.Decoder over the body.
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(list); err != nil {
			t.Fatalf("GET %s: %v in %s", path, err, data)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(list); err != nil || !bytes.Equal(data, want.Bytes()) {
			t.Errorf("GET %s:\n got %s\nwant %s (err %v)", path, data, want.Bytes(), err)
		}
	}
	var vms apiv1.VMList
	check("/v1/vms", &vms)
	if len(vms.Items) != 2 || vms.Total != 2 {
		t.Errorf("GET /v1/vms: %+v, want the two submitted VMs", vms)
	}
	var nodes apiv1.NodeList
	check("/v1/nodes?limit=3&offset=3", &nodes)
	if len(nodes.Items) != 3 || nodes.Total != 8 || nodes.NextOffset != 6 {
		t.Errorf("GET /v1/nodes page: %d items, total %d, next %d; want 3, 8, 6", len(nodes.Items), nodes.Total, nodes.NextOffset)
	}
}
