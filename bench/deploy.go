package main

// deploy.go is the only file that wires a deployment. It assembles, inside
// this process, what `snoozed -role control` plus one `snoozed -role node` per
// host and a peers file would: a control "process" (own WallRuntime and bus,
// three managers, coord, EP, livebackend, /v1 and /deliver on one loopback
// listener) and node hosts (own runtime, bus, listener and gateway, hosting
// LCs on hypervisor nodes), cross-registered through rest.Gateway peers.
// README.md lists every symbol used here as the benchmark's API contract.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	apiv1 "snooze/api/v1"
	apiclient "snooze/api/v1/client"
	"snooze/api/v1/livebackend"
	apiserver "snooze/api/v1/server"
	"snooze/internal/coord"
	"snooze/internal/hierarchy"
	"snooze/internal/hypervisor"
	"snooze/internal/metrics"
	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/rest"
	"snooze/internal/scheduling"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// Harness rules shared by every workload (ISSUE 13): manager timers, node
// size, generator width. No A/B knob of ManagerConfig is touched.
const (
	managerCount    = 3 // one becomes GL, two stay GMs
	heartbeatPeriod = 500 * time.Millisecond
	sessionTTL      = 2 * time.Second
	nodeCPU         = 64.0
	nodeMemMB       = 256 * 1024.0
	loadWorkers     = 2 // generator goroutines = keep-alive connections = nproc
	setupTimeout    = 30 * time.Second
	lcStartWindow   = 400 * time.Millisecond // LC starts are spread over this, inside one heartbeat period
)

// deployConfig sizes one deployment.
type deployConfig struct {
	Hosts      int           // node hosts reached over HTTP
	LCsPerHost int           // LCs on each node host
	LocalLCs   int           // LCs co-hosted on the control bus (no rest hop)
	Monitor    time.Duration // LC monitor period
	Trace      *harnessTrace // non-nil installs the harness span wrappers
}

func (c deployConfig) totalLCs() int { return c.Hosts*c.LCsPerHost + c.LocalLCs }

// nodeHost is one `snoozed -role node` stand-in hosting several LCs.
type nodeHost struct {
	rt   *simkernel.WallRuntime
	bus  *transport.Bus
	http *httpListener
	lcs  []*hierarchy.LC
}

// httpListener is a loopback HTTP server whose Close waits for Serve to end.
type httpListener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &httpListener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return l, nil
}

func (l *httpListener) Close() {
	_ = l.srv.Close() // drops open connections; only read-side state is lost
	<-l.done
}

// deployment is one assembled hierarchy plus the handles the harness needs:
// the typed client it drives, the hypervisor nodes it retires VMs on, and the
// accessors the counters are read through.
type deployment struct {
	cfg deployConfig

	rt       *simkernel.WallRuntime
	bus      *transport.Bus
	reg      *metrics.Registry
	hub      *telemetry.Hub
	tracer   *obs.Tracer
	managers []*hierarchy.Manager
	ep       *hierarchy.EP
	backend  *livebackend.Backend
	gw       *rest.Gateway
	control  *httpListener
	cancel   context.CancelFunc

	hosts    []*nodeHost
	localLCs []*hierarchy.LC
	nodes    map[types.NodeID]*hypervisor.Node
	nodeIDs  []types.NodeID

	transport *http.Transport
	client    *apiclient.Client

	// Set-up timings, from the first constructor call.
	setup     time.Duration // every LC joined and a deep topology lists them
	glElected time.Duration // the entry point has heard the elected GL
	allJoined time.Duration
}

// deploy builds a deployment and waits until the hierarchy has formed.
func deploy(cfg deployConfig) (*deployment, error) {
	start := time.Now()
	d := &deployment{cfg: cfg, nodes: make(map[types.NodeID]*hypervisor.Node)}

	// Control process, in cmd/snoozed's order.
	d.rt = simkernel.NewWallRuntime()
	d.bus = transport.NewBus(d.rt, transport.Config{})
	d.gw = rest.NewGateway(d.bus, 30*time.Second)
	d.reg = metrics.NewRegistry()
	d.hub = telemetry.NewHub(telemetry.Options{Metrics: d.reg})
	svc := coord.NewService(d.rt)
	d.tracer = obs.New(obs.Config{
		Sample:  1,
		Now:     d.rt.Now,
		Metrics: d.reg,
		Emit: func(entity string, attrs map[string]string) {
			d.hub.Emit(telemetry.EventDecisionTrace, entity, d.rt.Now(), telemetry.AttrsFromMap(attrs))
		},
	})
	// The EP goes first (cmd/snoozed starts it after the managers; the order
	// does not matter to either) so that it hears the GL's first heartbeat.
	d.ep = hierarchy.NewEP(d.rt, d.bus, "ep:0", 0)
	d.ep.Start()
	var managerAddrs []transport.Address
	var gmGroups []string
	for i := 0; i < managerCount; i++ {
		id := types.GroupManagerID(fmt.Sprintf("gm-%02d", i))
		mcfg := hierarchy.DefaultManagerConfig(id, transport.Address("mgr:"+string(id)))
		mcfg.HeartbeatPeriod = heartbeatPeriod
		mcfg.SummaryPeriod = heartbeatPeriod
		mcfg.SessionTTL = sessionTTL
		mcfg.Metrics = d.reg
		mcfg.Telemetry = d.hub
		mcfg.Tracer = d.tracer
		var err error
		if mcfg.Dispatch, err = scheduling.NewDispatchPolicy("round-robin"); err != nil {
			return nil, err
		}
		if mcfg.Placement, err = scheduling.NewPlacementPolicy("round-robin"); err != nil {
			return nil, err
		}
		if cfg.Trace != nil {
			mcfg.Placement = cfg.Trace.placement(mcfg.Placement)
		}
		m := hierarchy.NewManager(d.rt, d.bus, svc, mcfg)
		if err := m.Start(); err != nil {
			d.Close()
			return nil, fmt.Errorf("manager %s: %w", id, err)
		}
		d.managers = append(d.managers, m)
		managerAddrs = append(managerAddrs, mcfg.Addr)
		gmGroups = append(gmGroups, protocol.GroupGMPrefix+string(id))
	}
	d.backend = livebackend.New(livebackend.Config{
		Bus:       d.bus,
		EPs:       []transport.Address{"ep:0"},
		Metrics:   d.reg,
		Telemetry: d.hub,
		Now:       d.rt.Now,
		Tracer:    d.tracer,
	})
	var backend apiv1.Backend = d.backend
	if cfg.Trace != nil {
		backend = cfg.Trace.backend(backend)
	}
	api := apiserver.New(backend)
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	api.StreamContext = ctx
	apiHandler, deliver := api.Handler(), rest.NewServer(d.bus, 60*time.Second).Handler()
	if cfg.Trace != nil {
		apiHandler, deliver = cfg.Trace.apiMiddleware(apiHandler), cfg.Trace.restMiddleware(deliver)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", apiHandler)
	mux.Handle("/metrics", api.PrometheusHandler())
	mux.Handle("/", deliver)
	var err error
	if d.control, err = listen(mux); err != nil {
		d.Close()
		return nil, err
	}

	// Node processes start once the control process is up (its EP knows the
	// GL), one LC after another across lcStartWindow: processes are not started
	// in the same millisecond, and LCs that were would send their monitor
	// reports in one burst per period for ever after. All of them are up before
	// the GL's second heartbeat, which is the one they join on.
	for deadline := start.Add(setupTimeout); d.ep.GL() == ""; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			d.Close()
			return nil, errors.New("setup: the entry point never heard a GL heartbeat")
		}
	}
	d.glElected = time.Since(start)
	hostsStart := time.Now()
	started := 0
	pace := func() {
		started++
		if wait := time.Until(hostsStart.Add(lcStartWindow * time.Duration(started) / time.Duration(cfg.totalLCs()))); wait > 0 {
			time.Sleep(wait)
		}
	}

	// The peers file of a node lists the managers; the control peers file
	// lists every LC (in snooze.gl and every GM heartbeat group, so LCs hear
	// their GM whichever it is) and its out-of-band address.
	lcGroups := append([]string{protocol.GroupGL}, gmGroups...)
	lcCfg := hierarchy.DefaultLCConfig()
	lcCfg.MonitorPeriod = cfg.Monitor
	hvCfg := hypervisor.DefaultConfig()
	hvCfg.VMBootDelay = 0
	noPeerMigration := func(types.NodeID) (*hypervisor.Node, bool) {
		return nil, false // as cmd/snoozed: cross-process migration needs a shared data plane
	}
	newLC := func(rt *simkernel.WallRuntime, bus *transport.Bus) *hierarchy.LC {
		id := types.NodeID(fmt.Sprintf("n%03d", len(d.nodeIDs)))
		node := hypervisor.NewNode(rt, types.NodeSpec{ID: id, Capacity: types.RV(nodeCPU, nodeMemMB, 1000, 1000)}, hvCfg)
		d.nodes[id] = node
		d.nodeIDs = append(d.nodeIDs, id)
		lc := hierarchy.NewLC(rt, bus, node, transport.Address("lc:"+string(id)), noPeerMigration, lcCfg)
		lc.Start()
		return lc
	}
	for h := 0; h < cfg.Hosts; h++ {
		host := &nodeHost{rt: simkernel.NewWallRuntime()}
		host.bus = transport.NewBus(host.rt, transport.Config{})
		gw := rest.NewGateway(host.bus, 30*time.Second)
		handler := rest.NewServer(host.bus, 60*time.Second).Handler()
		if cfg.Trace != nil {
			handler = cfg.Trace.restMiddleware(handler)
		}
		if host.http, err = listen(handler); err != nil {
			d.Close()
			return nil, err
		}
		d.hosts = append(d.hosts, host)
		for _, addr := range managerAddrs {
			gw.AddPeer(addr, d.control.url)
		}
		for k := 0; k < cfg.LCsPerHost; k++ {
			lc := newLC(host.rt, host.bus)
			host.lcs = append(host.lcs, lc)
			d.gw.AddPeer(lc.Addr(), host.http.url, lcGroups...)
			d.gw.AddPeer(hierarchy.OOBAddress(lc.Addr()), host.http.url)
			pace()
		}
	}
	for k := 0; k < cfg.LocalLCs; k++ {
		d.localLCs = append(d.localLCs, newLC(d.rt, d.bus))
		pace()
	}

	// The load generator's client: one keep-alive connection per worker.
	d.transport = &http.Transport{MaxConnsPerHost: loadWorkers, MaxIdleConnsPerHost: loadWorkers}
	var rtrip http.RoundTripper = d.transport
	if cfg.Trace != nil {
		rtrip = cfg.Trace.roundTripper(rtrip)
	}
	d.client = apiclient.New(d.control.url, apiclient.WithHTTPClient(&http.Client{Transport: rtrip, Timeout: 2 * time.Minute}))

	if err := d.awaitFormed(start); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// lcs returns every LC of the deployment.
func (d *deployment) lcs() []*hierarchy.LC {
	out := append([]*hierarchy.LC(nil), d.localLCs...)
	for _, h := range d.hosts {
		out = append(out, h.lcs...)
	}
	return out
}

// buses returns the control bus followed by every node host's bus.
func (d *deployment) buses() []*transport.Bus {
	out := []*transport.Bus{d.bus}
	for _, h := range d.hosts {
		out = append(out, h.bus)
	}
	return out
}

// awaitFormed polls until every LC has a GM and a deep topology fetched
// through /v1 lists all of them; it stamps the set-up times.
func (d *deployment) awaitFormed(start time.Time) error {
	deadline := start.Add(setupTimeout)
	lcs := d.lcs()
	for {
		joined := 0
		for _, lc := range lcs {
			if lc.GM() != "" {
				joined++
			}
		}
		if joined == len(lcs) {
			d.allJoined = time.Since(start)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("setup: %d of %d LCs joined", joined, len(lcs))
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		topo, err := d.client.Topology(context.Background(), true)
		listed := 0
		for _, gm := range topo.GMs {
			listed += len(gm.LCs)
		}
		if err == nil && listed == len(lcs) {
			d.setup = time.Since(start)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("setup: deep topology lists %d of %d LCs (err=%v)", listed, len(lcs), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitPlaceable waits until the GMs' summary pushes have told the GL about
// every LC's capacity, i.e. the dispatch policy sees the whole fleet (the LC
// count in a summary is no evidence: the GL bumps it itself on assignment).
// It returns the wait.
func (d *deployment) awaitPlaceable() (time.Duration, error) {
	start := time.Now()
	want := float64(d.cfg.totalLCs()) * nodeCPU
	for {
		topo, err := d.client.Topology(context.Background(), false)
		cpu := 0.0
		for _, gm := range topo.GMs {
			cpu += gm.Summary.Total.CPU
		}
		if err == nil && cpu >= want {
			return time.Since(start), nil
		}
		if time.Since(start) > setupTimeout {
			return 0, fmt.Errorf("setup: GL summaries cover %.0f of %.0f CPUs (err=%v)", cpu, want, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops every component and listener and waits for the servers to end.
func (d *deployment) Close() {
	for _, lc := range d.lcs() {
		lc.Stop()
	}
	for _, m := range d.managers {
		m.Stop()
	}
	if d.ep != nil {
		d.ep.Stop()
	}
	if d.cancel != nil {
		d.cancel()
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
	// rest.Gateway posts through http.DefaultTransport.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	for _, h := range d.hosts {
		if h.http != nil {
			h.http.Close()
		}
	}
	if d.control != nil {
		d.control.Close()
	}
}
