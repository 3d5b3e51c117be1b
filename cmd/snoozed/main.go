// Command snoozed runs Snooze components as a real (wall-clock) process
// serving the control plane over HTTP — the deployment analogue of the
// paper's Java RESTful web services.
//
// Two roles exist:
//
//   - control: hosts the manager processes (GL election happens among
//     them), the coordination service and the entry points. Control
//     processes serve two HTTP surfaces: POST /deliver/stream, the
//     inter-component RPC tunnel (internal/rest), and /v1/*, the versioned
//     typed operator API (api/v1) that snoozectl and programmatic clients
//     consume.
//   - node: hosts one simulated physical node with its Local Controller
//     (serves /deliver/stream and /metrics; operators talk to a control
//     process).
//
// Processes discover each other through a peers file (JSON), standing in
// for the paper's UDP multicast groups:
//
//	[
//	  {"addr": "mgr:gm-00", "url": "http://ctrl:7001", "groups": []},
//	  {"addr": "lc:n1", "url": "http://node1:7002", "groups": ["snooze.gl"]},
//	  {"addr": "oob:lc:n1", "url": "http://node1:7002", "groups": []}
//	]
//
// Example (three terminals):
//
//	snoozed -role control -listen :7001 -managers 3 -peers peers.json
//	snoozed -role node -listen :7002 -node n1 -peers peers.json
//	snoozectl -server http://localhost:7001 submit -n 4
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	apiv1 "snooze/api/v1"
	apiserver "snooze/api/v1/server"
	"snooze/internal/cluster"
	"snooze/internal/consolidation/online"
	"snooze/internal/hierarchy"
	"snooze/internal/hypervisor"
	"snooze/internal/metrics"
	"snooze/internal/protocol"
	"snooze/internal/rest"
	"snooze/internal/scheduling"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// withTransportCounters brings the process's bus and gateway counters up to
// date in reg before next renders it: transport.delivered/dropped (messages
// handed to, or lost before, a local handler), rest.forwards/
// forward-errors/dials (messages sent to peer processes, those that reached
// no remote handler, connections opened) and rest.dropped/broken-calls
// (one-way messages a full stream queue dropped, calls a broken stream
// failed), plus the wall-clock executor's simkernel.workers-started counter
// and simkernel.workers-idle gauge.
func withTransportCounters(reg *metrics.Registry, bus *transport.Bus, gw *rest.Gateway, next http.Handler) http.Handler {
	var mu sync.Mutex // one scrape at a time computes the increments
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		set := func(name string, total uint64) { reg.Inc(name, int64(total)-reg.Count(name)) }
		delivered, dropped := bus.Stats()
		set("transport.delivered", delivered)
		set("transport.dropped", dropped)
		stats := gw.Stats()
		set("rest.forwards", stats.Forwards)
		set("rest.forward-errors", stats.ForwardErrors)
		set("rest.dials", stats.Dials)
		set("rest.dropped", stats.Dropped)
		set("rest.broken-calls", stats.BrokenCalls)
		started, idle := simkernel.WallWorkers()
		set("simkernel.workers-started", started)
		reg.SetGauge("simkernel.workers-idle", float64(idle))
		mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

// peer is one entry of the peers file.
type peer struct {
	Addr   string   `json:"addr"`
	URL    string   `json:"url"`
	Groups []string `json:"groups"`
}

func main() {
	role := flag.String("role", "control", "process role: control | node")
	listen := flag.String("listen", ":7001", "HTTP listen address")
	managers := flag.Int("managers", 3, "control role: number of manager processes (>=2: one becomes GL)")
	nodeID := flag.String("node", "n1", "node role: node identifier")
	cpu := flag.Float64("cpu", 8, "node role: CPU cores")
	memMB := flag.Float64("mem", 32768, "node role: memory (MB)")
	peersFile := flag.String("peers", "", "path to the peers JSON file")
	dispatch := flag.String("dispatch", "", "control role: GL dispatch policy (round-robin | least-loaded | most-loaded | p95-headroom)")
	placement := flag.String("placement", "", "control role: GM placement policy (first-fit | best-fit | worst-fit | round-robin | percentile-fit)")
	overload := flag.String("overload", "", "control role: overload relocation policy (overload-relocation | trend-relocation)")
	underload := flag.String("underload", "underload-relocation", "control role: underload relocation policy (underload-relocation | trend-underload)")
	viewHorizon := flag.Duration("view-horizon", 0, "control role: capacity-view history window (0 = default 5m)")
	seriesCapacity := flag.Int("series-capacity", 0, "control role: maximum raw telemetry ring length per series (0 = 512)")
	seriesTiers := flag.String("series-tiers", "", `control role: downsampled retention tiers as "step:capacity,..." (default "1m:512,10m:512"; "none" disables)`)
	consolidation := flag.Bool("consolidation", false, "control role: run the online consolidation optimizer on the elected GM")
	consolidationPeriod := flag.Duration("consolidation-period", 0, "control role: online consolidation round period (0 = default 30s)")
	consolidationBudget := flag.Int("consolidation-budget", 0, "control role: migrations per consolidation round (0 = default 4; <0 unlimited)")
	consolidationColonies := flag.Int("consolidation-colonies", 0, "control role: parallel ant colonies per consolidation round (0 = default 4)")
	traceSample := flag.Int("trace-sample", 1, "control role: record every Nth decision trace (<=1 records all)")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiling is opt-in)")
	flag.Parse()

	rt := simkernel.NewWallRuntime()
	bus := transport.NewBus(rt, transport.Config{})
	gw := rest.NewGateway(bus, 30*time.Second)
	defer gw.Close()
	if *peersFile != "" {
		data, err := os.ReadFile(*peersFile)
		if err != nil {
			log.Fatalf("read peers: %v", err)
		}
		var peers []peer
		if err := json.Unmarshal(data, &peers); err != nil {
			log.Fatalf("parse peers: %v", err)
		}
		for _, p := range peers {
			gw.AddPeer(transport.Address(p.Addr), p.URL, p.Groups...)
		}
		log.Printf("registered %d peers", len(peers))
	}

	// The signal context ends long-lived /v1/watch streams at shutdown, so
	// http.Server.Shutdown can drain; short in-flight requests are left to
	// complete normally.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mux := http.NewServeMux()
	reg := metrics.NewRegistry()
	switch *role {
	case "control":
		tiers, err := telemetry.ParseTiers(*seriesTiers)
		if err != nil {
			log.Fatalf("-series-tiers: %v", err)
		}
		mcfg := hierarchy.DefaultManagerConfig("", "")
		mcfg.ViewHorizon = *viewHorizon
		mcfg.Consolidation = online.Config{
			Enabled:         *consolidation,
			Period:          *consolidationPeriod,
			MigrationBudget: *consolidationBudget,
			Colonies:        *consolidationColonies,
		}
		// One control plane per process: one telemetry hub (the store keeps a
		// raw ring per series backed by the downsampled retention tiers) and
		// one decision tracer, both fed by every manager and read by /v1.
		ctl, err := cluster.NewControl(rt, bus, cluster.ControlConfig{
			Managers: *managers,
			Manager:  mcfg,
			PerManager: func(cfg *hierarchy.ManagerConfig) error {
				var err error
				if cfg.Dispatch, err = scheduling.NewDispatchPolicy(*dispatch); err != nil {
					return fmt.Errorf("-dispatch: %v", err)
				}
				if cfg.Placement, err = scheduling.NewPlacementPolicy(*placement); err != nil {
					return fmt.Errorf("-placement: %v", err)
				}
				if cfg.Overload, err = scheduling.NewRelocationPolicy(*overload); err != nil {
					return fmt.Errorf("-overload: %v", err)
				}
				if cfg.Underload, err = scheduling.NewRelocationPolicy(*underload); err != nil {
					return fmt.Errorf("-underload: %v", err)
				}
				return nil
			},
			Metrics:     reg,
			Hub:         telemetry.Options{Store: telemetry.StoreConfig{SeriesCapacity: *seriesCapacity, Tiers: tiers}},
			TraceSample: *traceSample,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range ctl.Managers {
			log.Printf("manager %s started at bus address mgr:%s", m.ID(), m.ID())
		}
		log.Printf("entry point at bus address ep:0")

		// The operator API: the /v1 contract served from the hierarchy on this
		// process's bus.
		api := apiserver.New(ctl.Backend)
		api.StreamContext = ctx
		mux.Handle("/v1/", api.Handler())
		mux.Handle("/metrics", withTransportCounters(reg, bus, gw, api.PrometheusHandler()))
		log.Printf("api/v1 mounted at /v1 (Prometheus exposition at /metrics)")
	case "node":
		spec := types.NodeSpec{ID: types.NodeID(*nodeID), Capacity: types.RV(*cpu, *memMB, 1000, 1000)}
		node := hypervisor.NewNode(rt, spec, hypervisor.DefaultConfig())
		lcAddr := transport.Address("lc:" + *nodeID)
		lc := hierarchy.NewLC(rt, bus, node, lcAddr, func(types.NodeID) (*hypervisor.Node, bool) {
			return nil, false // cross-process migration needs a shared data plane
		}, hierarchy.DefaultLCConfig())
		lc.Start()
		// A node has no operator API; /metrics carries its transport counters
		// (every monitor report leaves through the gateway).
		mux.Handle("/metrics", withTransportCounters(reg, bus, gw, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = io.WriteString(w, apiserver.RenderPrometheus(apiv1.FromRegistry(reg)))
		})))
		log.Printf("node %s with LC at bus address %s (oob at %s)", *nodeID, lcAddr, hierarchy.OOBAddress(lcAddr))
	default:
		log.Fatalf("unknown role %q (want control|node)", *role)
	}
	_ = protocol.GroupGL // groups are wired through the peers file

	if *pprof {
		// net/http/pprof self-registers on DefaultServeMux, which this
		// process does not serve; mount its handlers explicitly so profiling
		// stays opt-in.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		log.Printf("pprof mounted at /debug/pprof/")
	}

	srv := rest.NewServer(bus, 60*time.Second)
	mux.Handle("/", srv.Handler())

	// Serve until SIGINT/SIGTERM, then drain gracefully: watch streams end
	// via StreamContext, everything else finishes inside the Shutdown
	// deadline.
	httpSrv := &http.Server{Addr: *listen, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("snoozed %s listening on %s", *role, *listen)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received, draining connections")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shutdown: %v", err)
		}
		log.Printf("snoozed %s stopped", *role)
	}
}
