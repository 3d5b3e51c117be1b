package rest

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snooze/internal/coord"
	"snooze/internal/hierarchy"
	"snooze/internal/hypervisor"
	"snooze/internal/protocol"
	"snooze/internal/simkernel"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// wallBus builds a wall-clock bus for HTTP tests.
func wallBus() (*transport.Bus, *simkernel.WallRuntime) {
	rt := simkernel.NewWallRuntime()
	return transport.NewBus(rt, transport.Config{Latency: 0}), rt
}

func TestServerRoundTrip(t *testing.T) {
	bus, _ := wallBus()
	bus.Register("echo", func(req *transport.Request) {
		sr := req.Payload.(protocol.StartVMRequest)
		req.Respond(protocol.StartVMResponse{OK: true, Error: string(sr.Spec.ID)})
	})
	srv := httptest.NewServer(NewServer(bus, 5*time.Second).Handler())
	defer srv.Close()

	cli := NewClient(5 * time.Second)
	reply, err := cli.Call(srv.URL, "echo", protocol.KindStartVM,
		protocol.StartVMRequest{Spec: types.VMSpec{ID: "vm-7", Requested: types.RV(1, 1, 1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := reply.(protocol.StartVMResponse)
	if !ok || !resp.OK || resp.Error != "vm-7" {
		t.Fatalf("reply: %#v", reply)
	}
}

func TestServerErrorPropagation(t *testing.T) {
	bus, _ := wallBus()
	bus.Register("boom", func(req *transport.Request) {
		req.RespondErr(errFixture)
	})
	srv := httptest.NewServer(NewServer(bus, 5*time.Second).Handler())
	defer srv.Close()
	cli := NewClient(5 * time.Second)
	_, err := cli.Call(srv.URL, "boom", protocol.KindStartVM, protocol.StartVMRequest{})
	if err == nil || !strings.Contains(err.Error(), "fixture") {
		t.Fatalf("err: %v", err)
	}
}

var errFixture = errFixtureT{}

type errFixtureT struct{}

func (errFixtureT) Error() string { return "fixture error" }

func TestServerUnknownDestination(t *testing.T) {
	bus, _ := wallBus()
	srv := httptest.NewServer(NewServer(bus, time.Second).Handler())
	defer srv.Close()
	cli := NewClient(5 * time.Second)
	_, err := cli.Call(srv.URL, "ghost", protocol.KindStartVM, protocol.StartVMRequest{})
	if err == nil {
		t.Fatal("expected error for unknown destination")
	}
}

func TestServerRejectsBadKind(t *testing.T) {
	bus, _ := wallBus()
	srv := httptest.NewServer(NewServer(bus, time.Second).Handler())
	defer srv.Close()
	cli := NewClient(5 * time.Second)
	_, err := cli.Call(srv.URL, "x", "bogus.kind", struct{}{})
	if err == nil {
		t.Fatal("expected bad-kind error")
	}
}

func TestGatewayForwardsBetweenProcesses(t *testing.T) {
	// Two "processes", each with its own wall bus and HTTP server; gateways
	// cross-register the peers.
	busA, _ := wallBus()
	busB, _ := wallBus()
	srvA := httptest.NewServer(NewServer(busA, 5*time.Second).Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(NewServer(busB, 5*time.Second).Handler())
	defer srvB.Close()

	busB.Register("svcB", func(req *transport.Request) {
		req.Respond(protocol.GLQueryResponse{Addr: "hello-from-B", Known: true})
	})
	gwA := NewGateway(busA, 5*time.Second)
	gwA.AddPeer("svcB", srvB.URL)
	if gwA.Peers() != 1 {
		t.Fatal("peer count")
	}

	// A local caller on bus A reaches svcB transparently.
	type out struct {
		reply any
		err   error
	}
	ch := make(chan out, 1)
	busA.Call("local", "svcB", protocol.KindGLQuery, struct{}{}, 5*time.Second,
		func(reply any, err error) { ch <- out{reply, err} })
	got := <-ch
	if got.err != nil {
		t.Fatal(got.err)
	}
	resp := got.reply.(protocol.GLQueryResponse)
	if resp.Addr != "hello-from-B" {
		t.Fatalf("reply: %+v", resp)
	}
}

func TestGatewayKeepsUnreachableTyped(t *testing.T) {
	// An unreachable destination must stay errors.Is-able across the HTTP
	// hop: api/v1/livebackend maps transport.ErrUnreachable to 503.
	busA, _ := wallBus()
	busB, _ := wallBus()
	srvB := httptest.NewServer(NewServer(busB, time.Second).Handler())
	defer srvB.Close()
	gwA := NewGateway(busA, 5*time.Second)
	gwA.AddPeer("ghost", srvB.URL) // registered locally, absent on B

	errCh := make(chan error, 1)
	busA.Call("local", "ghost", protocol.KindGLQuery, struct{}{}, 5*time.Second,
		func(_ any, err error) { errCh <- err })
	err := <-errCh
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("remote unreachable lost its type: %v", err)
	}

	// A dead remote process is equally unreachable.
	srvDead := httptest.NewServer(NewServer(busB, time.Second).Handler())
	gwA.AddPeer("dead", srvDead.URL)
	srvDead.Close()
	busA.Call("local", "dead", protocol.KindGLQuery, struct{}{}, 5*time.Second,
		func(_ any, err error) { errCh <- err })
	err = <-errCh
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dead remote lost its type: %v", err)
	}
}

// TestGatewaySlowPeerDoesNotBlockOthers: forwards run inline on the bus
// executor, so a peer that has not answered yet must not hold up another
// call through the same gateway — here the slow peer answers only once the
// fast one has.
func TestGatewaySlowPeerDoesNotBlockOthers(t *testing.T) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	srvB := httptest.NewServer(NewServer(busB, 10*time.Second).Handler())
	defer srvB.Close()

	slowArrived, fastAnswered := make(chan struct{}), make(chan struct{})
	busB.Register("lc:slow", func(req *transport.Request) {
		close(slowArrived)
		select {
		case <-fastAnswered:
		case <-time.After(5 * time.Second):
		}
		req.Respond(protocol.GLQueryResponse{Addr: "slow", Known: true})
	})
	busB.Register("lc:fast", func(req *transport.Request) {
		req.Respond(protocol.GLQueryResponse{Addr: "fast", Known: true})
	})
	gwA := NewGateway(busA, 10*time.Second)
	defer gwA.Close()
	gwA.AddPeer("lc:slow", srvB.URL)
	gwA.AddPeer("lc:fast", srvB.URL)

	type out struct {
		reply any
		err   error
	}
	call := func(to transport.Address, done func()) <-chan out {
		ch := make(chan out, 1)
		busA.Call("local", to, protocol.KindGLQuery, struct{}{}, 10*time.Second, func(reply any, err error) {
			done()
			ch <- out{reply, err}
		})
		return ch
	}
	slow := call("lc:slow", func() {})
	<-slowArrived // the slow exchange is in flight
	fast := call("lc:fast", func() { close(fastAnswered) })
	for _, c := range []struct {
		name string
		ch   <-chan out
	}{{"fast", fast}, {"slow", slow}} {
		select {
		case got := <-c.ch:
			if got.err != nil {
				t.Fatalf("%s call: %v", c.name, got.err)
			}
			if resp := got.reply.(protocol.GLQueryResponse); resp.Addr != c.name {
				t.Fatalf("%s call: reply %+v", c.name, resp)
			}
		case <-time.After(4 * time.Second):
			t.Fatalf("%s call did not complete: the slow peer blocked the gateway", c.name)
		}
	}
}

func TestGatewayMulticastMembership(t *testing.T) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	srvB := httptest.NewServer(NewServer(busB, 5*time.Second).Handler())
	defer srvB.Close()

	got := make(chan protocol.GLHeartbeat, 1)
	busB.Register("lcB", func(req *transport.Request) {
		if hb, ok := req.Payload.(protocol.GLHeartbeat); ok {
			select {
			case got <- hb:
			default:
			}
		}
	})
	gwA := NewGateway(busA, 5*time.Second)
	gwA.AddPeer("lcB", srvB.URL, protocol.GroupGL)

	busA.Multicast("gl", protocol.GroupGL, protocol.KindGLHeartbeat, protocol.GLHeartbeat{Addr: "gl", Epoch: 1})
	select {
	case hb := <-got:
		if hb.Addr != "gl" || hb.Epoch != 1 {
			t.Fatalf("heartbeat: %+v", hb)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("multicast not forwarded")
	}
	gwA.RemovePeer("lcB")
	if gwA.Peers() != 0 {
		t.Fatal("RemovePeer")
	}
}

func TestEndToEndDeploymentOverHTTP(t *testing.T) {
	// A miniature real deployment: one process hosts a manager (it becomes
	// GL), another hosts an LC + node; heartbeats and placement flow over
	// HTTP in both directions. This is the cmd/snoozed wiring in miniature.
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	rtA := simkernel.NewWallRuntime()
	busA := transport.NewBus(rtA, transport.Config{})
	rtB := simkernel.NewWallRuntime()
	busB := transport.NewBus(rtB, transport.Config{})
	srvA := httptest.NewServer(NewServer(busA, 10*time.Second).Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(NewServer(busB, 10*time.Second).Handler())
	defer srvB.Close()

	// Process A: coordination + manager pair (GL + GM) + EP.
	svc := coord.NewService(rtA)
	mcfg := hierarchy.DefaultManagerConfig("gm-00", "mgr:gm-00")
	mcfg.HeartbeatPeriod = 200 * time.Millisecond
	mcfg.SummaryPeriod = 300 * time.Millisecond
	mcfg.SessionTTL = 2 * time.Second
	mcfg.LCTimeout = 5 * time.Second
	m0 := hierarchy.NewManager(rtA, busA, svc, mcfg)
	mcfg1 := mcfg
	mcfg1.ID, mcfg1.Addr = "gm-01", "mgr:gm-01"
	m1 := hierarchy.NewManager(rtA, busA, svc, mcfg1)
	if err := m0.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	ep := hierarchy.NewEP(rtA, busA, "ep:0", 5*time.Second)
	ep.Start()

	// Process B: node + LC.
	node := hypervisor.NewNode(rtB, types.NodeSpec{ID: "n1", Capacity: types.RV(8, 16384, 1000, 1000)}, hypervisor.DefaultConfig())
	lcCfg := hierarchy.DefaultLCConfig()
	lcCfg.MonitorPeriod = 300 * time.Millisecond
	lcCfg.GMTimeout = 5 * time.Second
	lc := hierarchy.NewLC(rtB, busB, node, "lc:n1", func(types.NodeID) (*hypervisor.Node, bool) { return nil, false }, lcCfg)
	lc.Start()

	// Cross-register peers. A knows B's LC (for GM→LC commands and GL
	// heartbeat multicast); B knows A's managers (for joins/monitoring).
	gwA := NewGateway(busA, 10*time.Second)
	gwA.AddPeer("lc:n1", srvB.URL, protocol.GroupGL)
	gwA.AddPeer("oob:lc:n1", srvB.URL)
	gwB := NewGateway(busB, 10*time.Second)
	gwB.AddPeer("mgr:gm-00", srvA.URL, protocol.GroupGMPrefix+"gm-00")
	gwB.AddPeer("mgr:gm-01", srvA.URL, protocol.GroupGMPrefix+"gm-01")

	// Wait for the LC to join a GM over HTTP.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if lc.GM() != "" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if lc.GM() == "" {
		t.Fatal("LC never joined over HTTP")
	}
	// Let the GM's next summary reach the GL so dispatch sees the capacity.
	time.Sleep(time.Second)

	// Submit a VM through the CLI client → EP → GL → GM → LC(B).
	cli := NewClient(20 * time.Second)
	reply, err := cli.Call(srvA.URL, "ep:0", protocol.KindGLQuery, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	gl := reply.(protocol.GLQueryResponse)
	if !gl.Known {
		t.Fatal("EP does not know the GL")
	}
	reply, err = cli.Call(srvA.URL, gl.Addr, protocol.KindSubmit, protocol.SubmitRequest{
		VMs: []types.VMSpec{{ID: "vm-http", Requested: types.RV(2, 2048, 10, 10)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := reply.(protocol.SubmitResponse)
	if len(sub.Placed) != 1 {
		t.Fatalf("submit over HTTP: %+v", sub)
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !node.HasVM("vm-http") {
		time.Sleep(100 * time.Millisecond)
	}
	if !node.HasVM("vm-http") {
		t.Fatal("VM not on remote node")
	}
	m0.Stop()
	m1.Stop()
	lc.Stop()
}
