// Package cluster assembles complete simulated Snooze deployments: a
// discrete-event kernel, an in-process message bus, the coordination
// service, one hypervisor node + Local Controller per topology entry, a set
// of Manager processes (GM/GL via election) and replicated Entry Points.
// Experiments and tests drive the returned Cluster's virtual clock and
// inject faults through it.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"snooze/internal/coord"
	"snooze/internal/hierarchy"
	"snooze/internal/hypervisor"
	"snooze/internal/metrics"
	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// Config parameterizes a simulated cluster.
type Config struct {
	// Seed drives every random source (bus jitter, ACO, workloads).
	Seed int64
	// Topology describes nodes and hierarchy shape.
	Topology workload.Topology
	// Hypervisor configures nodes (power model, traces, migration rate).
	Hypervisor hypervisor.Config
	// LC configures local controllers.
	LC hierarchy.LCConfig
	// Manager is the template for all managers; ID/Addr, Metrics, Tracer and
	// Telemetry are filled per manager. Zero-valued fields take the
	// hierarchy.DefaultManagerConfig defaults.
	Manager hierarchy.ManagerConfig
	// Bus configures latency/jitter.
	Bus transport.Config
	// MeterPeriod samples node energy meters (0 disables).
	MeterPeriod time.Duration
	// Metrics receives counters from all managers (created when nil).
	Metrics *metrics.Registry
	// Tracer records decision traces across the hierarchy (created when
	// nil, clocked by the sim kernel and journaling decision.trace events
	// on the telemetry hub).
	Tracer *obs.Tracer
	// Telemetry is the deployment-wide telemetry hub shared by every manager
	// (created when nil, with detector thresholds mirroring LC.Thresholds so
	// the GM-side detector and the LC-side classifier agree).
	Telemetry *telemetry.Hub
	// Retention sizes the created hub's series store: raw ring capacity and
	// the downsampled tier ladder (see telemetry.StoreConfig). Ignored when
	// Telemetry is provided.
	Retention telemetry.StoreConfig
	// AutoRole, when non-nil, enables autonomic manager-population control
	// (the paper's Section V future work: the framework, not the
	// administrator, decides which nodes act as GMs).
	AutoRole *hierarchy.AutoRoleConfig
}

// DefaultConfig returns a ready-to-run configuration for the given topology.
func DefaultConfig(top workload.Topology, seed int64) Config {
	return Config{
		Seed:        seed,
		Topology:    top,
		Hypervisor:  hypervisor.DefaultConfig(),
		LC:          hierarchy.DefaultLCConfig(),
		Manager:     hierarchy.DefaultManagerConfig("", ""),
		Bus:         transport.Config{Latency: 500 * time.Microsecond, Jitter: 250 * time.Microsecond, Seed: seed},
		MeterPeriod: 5 * time.Second,
		Metrics:     metrics.NewRegistry(),
	}
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	Kernel    *simkernel.Kernel
	Bus       *transport.Bus
	Coord     *coord.Service
	Nodes     map[types.NodeID]*hypervisor.Node
	LCs       map[types.NodeID]*hierarchy.LC
	Managers  []*hierarchy.Manager
	EPs       []*hierarchy.EP
	Client    *hierarchy.Client
	Metrics   *metrics.Registry
	Telemetry *telemetry.Hub
	Tracer    *obs.Tracer
	AutoRole  *hierarchy.AutoRole

	cfg   Config
	meter *simkernel.Ticker
}

// New builds and starts a cluster. The hierarchy self-organizes once the
// kernel runs (call Settle).
func New(cfg Config) *Cluster {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Telemetry == nil {
		lcTh := cfg.LC.Thresholds
		if lcTh.Overload == 0 {
			lcTh = hierarchy.DefaultLCConfig().Thresholds
		}
		cooldown := cfg.LC.AnomalyCooldown
		if cooldown == 0 {
			cooldown = hierarchy.DefaultLCConfig().AnomalyCooldown
		}
		cfg.Telemetry = telemetry.NewHub(telemetry.Options{
			Metrics: cfg.Metrics,
			Store:   cfg.Retention,
			Thresholds: telemetry.Thresholds{
				Overload:  lcTh.Overload,
				Underload: lcTh.Underload,
				Repeat:    cooldown,
			},
		})
	}
	k := simkernel.New(cfg.Seed)
	if cfg.Tracer == nil {
		hub := cfg.Telemetry
		cfg.Tracer = obs.New(obs.Config{
			Now:     k.Now,
			Metrics: cfg.Metrics,
			Emit: func(entity string, attrs map[string]string) {
				hub.Emit(telemetry.EventDecisionTrace, entity, k.Now(), telemetry.AttrsFromMap(attrs))
			},
		})
	}
	bus := transport.NewBus(k, cfg.Bus)
	svc := coord.NewService(k)
	c := &Cluster{
		Kernel:    k,
		Bus:       bus,
		Coord:     svc,
		Nodes:     make(map[types.NodeID]*hypervisor.Node),
		LCs:       make(map[types.NodeID]*hierarchy.LC),
		Metrics:   cfg.Metrics,
		Telemetry: cfg.Telemetry,
		Tracer:    cfg.Tracer,
		cfg:       cfg,
	}

	// Nodes + LCs.
	resolve := func(id types.NodeID) (*hypervisor.Node, bool) {
		n, ok := c.Nodes[id]
		return n, ok
	}
	for _, spec := range cfg.Topology.Nodes {
		node := hypervisor.NewNode(k, spec, cfg.Hypervisor)
		c.Nodes[spec.ID] = node
		lc := hierarchy.NewLC(k, bus, node, transport.Address("lc:"+string(spec.ID)), resolve, cfg.LC)
		c.LCs[spec.ID] = lc
		lc.Start()
	}

	// Managers: Topology.GMs counts group managers; one extra process is
	// spawned because the election promotes one manager to GL and "GL and
	// GMs do not host VMs" — the promoted one sheds its LC group.
	gms := cfg.Topology.GMs
	if gms < 1 {
		gms = 1
	}
	for i := 0; i < gms+1; i++ {
		mcfg := cfg.Manager
		mcfg.ID = types.GroupManagerID(fmt.Sprintf("gm-%02d", i))
		mcfg.Addr = transport.Address("mgr:" + string(mcfg.ID))
		mcfg.Metrics = cfg.Metrics
		mcfg.Telemetry = cfg.Telemetry
		mcfg.Tracer = cfg.Tracer
		m := hierarchy.NewManager(k, bus, svc, mcfg)
		c.Managers = append(c.Managers, m)
		if err := m.Start(); err != nil {
			panic(fmt.Sprintf("cluster: manager start: %v", err))
		}
	}

	// Entry points + client.
	eps := cfg.Topology.EPs
	if eps < 1 {
		eps = 1
	}
	var epAddrs []transport.Address
	for i := 0; i < eps; i++ {
		addr := transport.Address(fmt.Sprintf("ep:%02d", i))
		ep := hierarchy.NewEP(k, bus, addr, 0)
		ep.Start()
		c.EPs = append(c.EPs, ep)
		epAddrs = append(epAddrs, addr)
	}
	c.Client = hierarchy.NewClient(k, bus, "client:0", epAddrs, 0)

	// Autonomic role assignment (optional).
	if cfg.AutoRole != nil {
		factory := func(index int) (*hierarchy.Manager, error) {
			id := types.GroupManagerID(hierarchy.AutoManagerID(index))
			mcfg := cfg.Manager
			mcfg.ID = id
			mcfg.Addr = transport.Address("mgr:" + string(id))
			mcfg.Metrics = cfg.Metrics
			mcfg.Telemetry = cfg.Telemetry
			mcfg.Tracer = cfg.Tracer
			m := hierarchy.NewManager(k, bus, svc, mcfg)
			if err := m.Start(); err != nil {
				return nil, err
			}
			c.Managers = append(c.Managers, m)
			return m, nil
		}
		c.AutoRole = hierarchy.NewAutoRole(k, bus, "autorole:0", factory, *cfg.AutoRole)
		c.AutoRole.Start()
	}

	// Periodic energy metering.
	if cfg.MeterPeriod > 0 {
		c.meter = simkernel.NewTicker(k, cfg.MeterPeriod, func() {
			for _, n := range c.Nodes {
				n.MeterSample()
			}
		})
		c.meter.Start()
	}
	return c
}

// Settle advances virtual time by d, letting the hierarchy self-organize
// (election, joins, first heartbeats).
func (c *Cluster) Settle(d time.Duration) {
	c.Kernel.Run(c.Kernel.Now() + d)
}

// Leader returns the current GL manager, or nil during an election.
func (c *Cluster) Leader() *hierarchy.Manager {
	for _, m := range c.Managers {
		if m.Role() == hierarchy.RoleGL {
			return m
		}
	}
	return nil
}

// GroupManagers returns managers currently in the GM role.
func (c *Cluster) GroupManagers() []*hierarchy.Manager {
	var out []*hierarchy.Manager
	for _, m := range c.Managers {
		if m.Role() == hierarchy.RoleGM {
			out = append(out, m)
		}
	}
	return out
}

// ErrTimeout is returned by the *AndWait helpers.
var ErrTimeout = errors.New("cluster: operation did not complete in simulated time")

// SubmitAndWait submits VMs through the client and drives the kernel until
// the response arrives (or maxSim virtual time elapses).
func (c *Cluster) SubmitAndWait(vms []types.VMSpec, maxSim time.Duration) (protocol.SubmitResponse, error) {
	var resp protocol.SubmitResponse
	var rerr error
	done := false
	c.Client.Submit(vms, func(r protocol.SubmitResponse, err error) {
		resp, rerr, done = r, err, true
	})
	deadline := c.Kernel.Now() + maxSim
	for !done && c.Kernel.Now() < deadline {
		if !c.Kernel.Step() {
			break
		}
	}
	if !done {
		return resp, ErrTimeout
	}
	return resp, rerr
}

// TopologyAndWait fetches the hierarchy export through the client.
func (c *Cluster) TopologyAndWait(maxSim time.Duration) (protocol.TopologyResponse, error) {
	return c.topologyAndWait(maxSim, false)
}

// TopologyDeepAndWait fetches the hierarchy export including per-LC detail
// (the GL fans out to every GM).
func (c *Cluster) TopologyDeepAndWait(maxSim time.Duration) (protocol.TopologyResponse, error) {
	return c.topologyAndWait(maxSim, true)
}

func (c *Cluster) topologyAndWait(maxSim time.Duration, deep bool) (protocol.TopologyResponse, error) {
	var resp protocol.TopologyResponse
	var rerr error
	done := false
	cb := func(r protocol.TopologyResponse, err error) {
		resp, rerr, done = r, err, true
	}
	if deep {
		c.Client.TopologyDeep(cb)
	} else {
		c.Client.Topology(cb)
	}
	deadline := c.Kernel.Now() + maxSim
	for !done && c.Kernel.Now() < deadline {
		if !c.Kernel.Step() {
			break
		}
	}
	if !done {
		return resp, ErrTimeout
	}
	return resp, rerr
}

// RunningVMs counts VMs in VMRunning state across all nodes.
func (c *Cluster) RunningVMs() int {
	n := 0
	for _, node := range c.Nodes {
		for _, vm := range node.VMs() {
			if vm.State == types.VMRunning {
				n++
			}
		}
	}
	return n
}

// TotalVMs counts VMs in any live state across all nodes.
func (c *Cluster) TotalVMs() int {
	n := 0
	for _, node := range c.Nodes {
		n += len(node.VMs())
	}
	return n
}

// PowerStates counts nodes per power state.
func (c *Cluster) PowerStates() map[types.PowerState]int {
	out := map[types.PowerState]int{}
	for _, node := range c.Nodes {
		out[node.Power()]++
	}
	return out
}

// TotalEnergyJoules sums node energy meters (sample first). Summation is in
// node-ID order so the floating-point result is identical across runs.
func (c *Cluster) TotalEnergyJoules() float64 {
	ids := make([]string, 0, len(c.Nodes))
	for id := range c.Nodes {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	var sum float64
	for _, id := range ids {
		n := c.Nodes[types.NodeID(id)]
		n.MeterSample()
		sum += n.EnergyJoules()
	}
	return sum
}

// CrashLeader fail-stops the current GL; returns the crashed manager (nil if
// no leader).
func (c *Cluster) CrashLeader() *hierarchy.Manager {
	gl := c.Leader()
	if gl == nil {
		return nil
	}
	gl.Crash()
	return gl
}

// FailNode crash-stops a node (and with it, its LC).
func (c *Cluster) FailNode(id types.NodeID) {
	if n, ok := c.Nodes[id]; ok {
		n.Fail()
	}
}
