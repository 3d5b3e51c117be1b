// Package cluster assembles Snooze deployments. NewControl builds the control
// plane every deployment runs — coordination service, managers (GM/GL via
// election), entry points and the /v1 backend — and cmd/snoozed calls it for
// a control process. New builds a complete simulated deployment around it: a
// discrete-event kernel, an in-process message bus and one hypervisor node +
// Local Controller per topology entry. Experiments and tests drive the
// returned Cluster's virtual clock and inject faults through it; its API
// serves /v1 from the same backend a snoozed process serves, and each call
// runs the kernel until the hierarchy answers.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/api/v1/livebackend"
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
	// (created from Hub when nil).
	Telemetry *telemetry.Hub
	// Hub configures the created hub: the series store's retention (see
	// telemetry.StoreConfig) and the thresholds of the overload/underload
	// detector, the deployment's one anomaly classifier. Zero thresholds
	// take telemetry.DefaultThresholds. Ignored when Telemetry is provided.
	Hub telemetry.Options
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

// Cluster is a fully wired simulated deployment: the control plane
// (managers, entry points, /v1 backend) plus the nodes and LCs under it, on
// one kernel and bus.
type Cluster struct {
	*Control
	Kernel   *simkernel.Kernel
	Bus      *transport.Bus
	Nodes    map[types.NodeID]*hypervisor.Node
	LCs      map[types.NodeID]*hierarchy.LC
	AutoRole *hierarchy.AutoRole

	meter *simkernel.Ticker
	// slot is held by whoever runs the kernel (Settle, the AndWait helpers,
	// /v1 calls): the kernel is single-threaded, HTTP goroutines are not.
	slot chan struct{}
}

// New builds and starts a cluster. The hierarchy self-organizes once the
// kernel runs (call Settle).
func New(cfg Config) *Cluster {
	k := simkernel.New(cfg.Seed)
	bus := transport.NewBus(k, cfg.Bus)
	c := &Cluster{
		Kernel: k,
		Bus:    bus,
		Nodes:  make(map[types.NodeID]*hypervisor.Node),
		LCs:    make(map[types.NodeID]*hierarchy.LC),
		slot:   make(chan struct{}, 1),
	}
	c.slot <- struct{}{}

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

	// The control plane. Topology.GMs counts group managers; one extra
	// process is spawned because the election promotes one manager to GL and
	// "GL and GMs do not host VMs" — the promoted one sheds its LC group.
	var epAddrs []transport.Address
	for i := 0; i < max(cfg.Topology.EPs, 1); i++ {
		epAddrs = append(epAddrs, transport.Address(fmt.Sprintf("ep:%02d", i)))
	}
	ctl, err := NewControl(k, bus, ControlConfig{
		Managers:    max(cfg.Topology.GMs, 1) + 1,
		Manager:     cfg.Manager,
		EPs:         epAddrs,
		Metrics:     cfg.Metrics,
		Telemetry:   cfg.Telemetry,
		Hub:         cfg.Hub,
		Tracer:      cfg.Tracer,
		CallTimeout: time.Hour,
		Wait:        c.drive,
	})
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	c.Control = ctl

	// Autonomic role assignment (optional).
	if cfg.AutoRole != nil {
		factory := func(index int) (*hierarchy.Manager, error) {
			return c.addManager(types.GroupManagerID(hierarchy.AutoManagerID(index)))
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
	_ = c.hold(context.Background())
	defer c.release()
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

// hold takes the kernel slot, or returns ctx's error if ctx ends first.
func (c *Cluster) hold(ctx context.Context) error {
	select {
	case <-c.slot:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Cluster) release() { c.slot <- struct{}{} }

// drive is the /v1 backend's wait hook: it holds the kernel slot while it
// sends one call and steps the kernel until the reply is in or the queue runs
// dry. The bus's call timeout, itself a kernel event, bounds the wait.
func (c *Cluster) drive(ctx context.Context, send func(), replied func() bool) error {
	if err := c.hold(ctx); err != nil {
		return err
	}
	defer c.release()
	send()
	for !replied() && c.Kernel.Step() {
	}
	return nil
}

// backend is the control plane's /v1 backend with each bus call bounded by
// callTimeout of virtual time (<= 0: one virtual hour).
func (c *Cluster) backend(callTimeout time.Duration) *livebackend.Backend {
	if callTimeout > 0 {
		return c.Backend.WithCallTimeout(callTimeout)
	}
	return c.Backend
}

// API returns the cluster's /v1 backend: the control plane's livebackend,
// whose calls each take the kernel slot and run the simulation until the
// hierarchy answers, plus fault injection (apiv1.FaultInjector). Reads show
// the hierarchy's view: a VM is listed once a monitor report has carried it
// to its GM, and a failed node until its GM's LCTimeout expires.
// callTimeout bounds each call in virtual time (<= 0: one virtual hour).
// While the backend serves, drive the kernel only through the Cluster.
func (c *Cluster) API(callTimeout time.Duration) apiv1.Backend {
	return simAPI{c.backend(callTimeout), c}
}

type simAPI struct {
	*livebackend.Backend
	c *Cluster
}

// FailNode implements apiv1.FaultInjector: crash-stop a simulated node.
func (a simAPI) FailNode(ctx context.Context, id string) error {
	if err := a.c.hold(ctx); err != nil {
		return err
	}
	defer a.c.release()
	if _, ok := a.c.Nodes[types.NodeID(id)]; !ok {
		return fmt.Errorf("%w: node %q", apiv1.ErrNotFound, id)
	}
	a.c.FailNode(types.NodeID(id))
	return nil
}

// SubmitAndWait submits VMs the way a /v1 client does — to the GL the
// backend knows, or the one the entry points name when it knows none — and
// runs the kernel until the GL answers. The specs go out unvalidated. maxSim bounds each bus call in
// virtual time, not the whole operation; when no GL is known or one does not
// answer, the error wraps apiv1.ErrUnavailable.
func (c *Cluster) SubmitAndWait(vms []types.VMSpec, maxSim time.Duration) (protocol.SubmitResponse, error) {
	return c.backend(maxSim).Submit(context.Background(), vms)
}

// TopologyAndWait fetches the GL's hierarchy export (without per-LC detail)
// as SubmitAndWait submits, with the same bound and errors.
func (c *Cluster) TopologyAndWait(maxSim time.Duration) (protocol.TopologyResponse, error) {
	return c.backend(maxSim).Hierarchy(context.Background(), false)
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
