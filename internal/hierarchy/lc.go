// Package hierarchy implements the Snooze component state machines: Local
// Controllers (LCs), the Group Manager / Group Leader roles (a single
// Manager process that is promoted to GL by leader election, Section II-D),
// and Entry Points (EPs). Components are transport-agnostic: they exchange
// protocol messages over an injected transport.Bus and schedule their
// periodic work on a simkernel.Runtime, so identical code runs deterministic
// simulations and real wall-clock deployments.
//
// Failures heal by membership (Section II-E): LCs orphaned by a GM crash
// rejoin surviving GMs through the GL, and a crashed GL is replaced by
// re-election. The managers of one deployment share one telemetry hub, so a
// GM that adopts orphaned LCs schedules them on their pre-crash history
// (warm failover) without any state being copied between managers.
package hierarchy

import (
	"fmt"
	"sync"
	"time"

	"snooze/internal/hypervisor"
	"snooze/internal/protocol"
	"snooze/internal/simkernel"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// NodeResolver lets a source LC find the destination hypervisor for a live
// migration. In simulation this is the cluster's node table; a real
// deployment would establish a libvirt peer connection instead.
type NodeResolver func(id types.NodeID) (*hypervisor.Node, bool)

// LCConfig parameterizes a Local Controller.
type LCConfig struct {
	// MonitorPeriod is the interval of monitoring reports to the GM, which
	// double as LC heartbeats (Section II-B).
	MonitorPeriod time.Duration
	// GMTimeout declares the GM dead when no GM heartbeat arrives for this
	// long; the LC then rejoins the hierarchy (Section II-E).
	GMTimeout time.Duration
	// CallTimeout bounds join/assign RPCs.
	CallTimeout time.Duration
}

// DefaultLCConfig returns the timers used by the experiments (heartbeat
// scales chosen to match the paper's multi-second failure detection).
func DefaultLCConfig() LCConfig {
	return LCConfig{
		MonitorPeriod: 3 * time.Second,
		GMTimeout:     10 * time.Second,
		CallTimeout:   5 * time.Second,
	}
}

// LC is a Local Controller: the per-node agent that "enforce[s] VM and host
// management commands coming from the GM" (Section II-A) and reports the
// monitoring data its GM detects overload/underload anomalies from.
type LC struct {
	rt      simkernel.Runtime
	bus     *transport.Bus
	node    *hypervisor.Node
	cfg     LCConfig
	addr    transport.Address
	oobAddr transport.Address
	resolve NodeResolver

	mu         sync.Mutex
	gmAddr     transport.Address
	gmID       types.GroupManagerID
	lastGMBeat time.Duration
	joining    bool
	stopped    bool
	ticker     *simkernel.Ticker
	rejoins    uint64
	// corrupt, when set, mutates outgoing monitor reports in flight — the
	// gray-failure injection hook (a sensor gone bad, a broken sender
	// clock). Production code never sets it.
	corrupt func(*protocol.MonitorReport)
}

// NewLC creates a Local Controller for the given node. addr is the LC's bus
// address; the out-of-band wake endpoint is registered at OOBAddress(addr).
func NewLC(rt simkernel.Runtime, bus *transport.Bus, node *hypervisor.Node, addr transport.Address, resolve NodeResolver, cfg LCConfig) *LC {
	if cfg.MonitorPeriod <= 0 {
		cfg = DefaultLCConfig()
	}
	return &LC{
		rt:      rt,
		bus:     bus,
		node:    node,
		cfg:     cfg,
		addr:    addr,
		oobAddr: OOBAddress(addr),
		resolve: resolve,
	}
}

// OOBAddress derives the out-of-band (wake-on-LAN analogue) address for an
// LC address. The OOB endpoint stays reachable while the node sleeps.
func OOBAddress(lc transport.Address) transport.Address {
	return "oob:" + lc
}

// Addr returns the LC's bus address.
func (lc *LC) Addr() transport.Address { return lc.addr }

// SetCorrupt installs (or, with nil, clears) a hook mutating outgoing
// monitor reports — the fault-injection entry point for gray failures
// (NaN/negative usage, future-stamped clocks). See internal/faults.
func (lc *LC) SetCorrupt(fn func(*protocol.MonitorReport)) {
	lc.mu.Lock()
	lc.corrupt = fn
	lc.mu.Unlock()
}

// NodeID returns the managed node's ID.
func (lc *LC) NodeID() types.NodeID { return lc.node.ID() }

// GM returns the currently assigned GM address ("" when unassigned).
func (lc *LC) GM() transport.Address {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.gmAddr
}

// Rejoins returns how many times this LC joined (or re-joined) a GM — the
// self-healing activity counter used by experiment E6.
func (lc *LC) Rejoins() uint64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.rejoins
}

// Start registers the LC on the bus, subscribes to GL heartbeats and begins
// periodic monitoring. The LC starts unassigned; assignment happens on the
// first GL heartbeat (Section II-D).
func (lc *LC) Start() {
	lc.bus.Register(lc.addr, lc.handle)
	lc.bus.Register(lc.oobAddr, lc.handleOOB)
	lc.bus.JoinGroup(protocol.GroupGL, lc.addr)
	// Power transitions gate the LC's reachability: a suspending node's LC
	// process freezes with it.
	lc.node.OnPowerChange(func(_ types.NodeID, st types.PowerState) {
		switch st {
		case types.PowerSuspended, types.PowerOff, types.PowerFailed:
			lc.bus.SetDown(lc.addr, true)
		case types.PowerOn:
			lc.bus.SetDown(lc.addr, false)
		}
	})
	lc.ticker = simkernel.NewTicker(lc.rt, lc.cfg.MonitorPeriod, lc.tick)
	lc.ticker.Start()
}

// Stop halts periodic work and removes the LC from the bus.
func (lc *LC) Stop() {
	lc.mu.Lock()
	lc.stopped = true
	lc.mu.Unlock()
	if lc.ticker != nil {
		lc.ticker.Stop()
	}
	lc.bus.LeaveGroup(protocol.GroupGL, lc.addr)
	lc.bus.Unregister(lc.addr)
	lc.bus.Unregister(lc.oobAddr)
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

func (lc *LC) handle(req *transport.Request) {
	switch req.Kind {
	case protocol.KindGLHeartbeat:
		lc.onGLHeartbeat(req)
	case protocol.KindGMHeartbeat:
		lc.onGMHeartbeat(req)
	case protocol.KindStartVM:
		lc.onStartVM(req)
	case protocol.KindStopVM:
		lc.onStopVM(req)
	case protocol.KindMigrateVM:
		lc.onMigrateVM(req)
	case protocol.KindSuspendHost:
		lc.onSuspend(req)
	case protocol.KindRejoin:
		lc.onRejoin(req)
	default:
		req.RespondErr(fmt.Errorf("lc %s: unknown message kind %q", lc.node.ID(), req.Kind))
	}
}

// handleOOB serves the out-of-band endpoint: wake requests reach the
// platform even while the LC software is frozen.
func (lc *LC) handleOOB(req *transport.Request) {
	if req.Kind != protocol.KindWakeHost {
		req.RespondErr(fmt.Errorf("oob %s: unknown message kind %q", lc.node.ID(), req.Kind))
		return
	}
	err := lc.node.Wake()
	if err != nil && lc.node.Power() == types.PowerOn {
		err = nil // already awake: wake is idempotent from the caller's view
	}
	if err != nil {
		req.RespondErr(err)
		return
	}
	req.Respond(struct{}{})
}

// onGLHeartbeat triggers the join protocol when unassigned (Section II-D:
// "When a heartbeat arrives, it contacts the GL to get a GM assigned").
func (lc *LC) onGLHeartbeat(req *transport.Request) {
	hb, ok := req.Payload.(protocol.GLHeartbeat)
	if !ok {
		return
	}
	lc.mu.Lock()
	if lc.stopped || lc.joining || lc.gmAddr != "" {
		lc.mu.Unlock()
		return
	}
	lc.joining = true
	lc.mu.Unlock()

	assignReq := protocol.LCAssignRequest{Spec: lc.node.Spec()}
	lc.bus.Call(lc.addr, transport.Address(hb.Addr), protocol.KindLCAssign, assignReq, lc.cfg.CallTimeout,
		func(reply any, err error) {
			if err != nil {
				lc.abortJoin()
				return
			}
			assign, ok := reply.(protocol.LCAssignResponse)
			if !ok || assign.Addr == "" {
				lc.abortJoin()
				return
			}
			join := protocol.LCJoinRequest{
				Addr:   string(lc.addr),
				OOB:    string(lc.oobAddr),
				Status: lc.node.Status(),
				VMs:    lc.node.VMs(),
			}
			lc.bus.Call(lc.addr, transport.Address(assign.Addr), protocol.KindLCJoin, join, lc.cfg.CallTimeout,
				func(reply any, err error) {
					if err != nil {
						lc.abortJoin()
						return
					}
					if ack, ok := reply.(protocol.LCJoinResponse); !ok || !ack.Accepted {
						lc.abortJoin()
						return
					}
					lc.mu.Lock()
					lc.joining = false
					lc.gmAddr = transport.Address(assign.Addr)
					lc.gmID = assign.GM
					lc.lastGMBeat = lc.rt.Now()
					lc.rejoins++
					lc.mu.Unlock()
					lc.bus.JoinGroup(protocol.GroupGMPrefix+string(assign.GM), lc.addr)
				})
		})
}

func (lc *LC) abortJoin() {
	lc.mu.Lock()
	lc.joining = false
	lc.mu.Unlock()
}

func (lc *LC) onGMHeartbeat(req *transport.Request) {
	hb, ok := req.Payload.(protocol.GMHeartbeat)
	if !ok {
		return
	}
	lc.mu.Lock()
	if lc.gmAddr == transport.Address(hb.Addr) {
		lc.lastGMBeat = lc.rt.Now()
	}
	lc.mu.Unlock()
}

func (lc *LC) onStartVM(req *transport.Request) {
	sr, ok := req.Payload.(protocol.StartVMRequest)
	if !ok {
		req.RespondErr(fmt.Errorf("lc: bad start payload"))
		return
	}
	if err := lc.node.StartVM(sr.Spec); err != nil {
		req.Respond(protocol.StartVMResponse{OK: false, Error: err.Error()})
		return
	}
	req.Respond(startVMOK)
}

// startVMOK is the success ack, boxed once: every started VM sends it.
var startVMOK any = protocol.StartVMResponse{OK: true}

func (lc *LC) onStopVM(req *transport.Request) {
	sr, ok := req.Payload.(protocol.StopVMRequest)
	if !ok {
		req.RespondErr(fmt.Errorf("lc: bad stop payload"))
		return
	}
	if err := lc.node.StopVM(sr.VM); err != nil {
		req.RespondErr(err)
		return
	}
	req.Respond(struct{}{})
}

// onMigrateVM executes a live migration ordered by the GM; the response is
// sent when the transfer completes, so the GM learns the true outcome.
func (lc *LC) onMigrateVM(req *transport.Request) {
	mr, ok := req.Payload.(protocol.MigrateVMRequest)
	if !ok {
		req.RespondErr(fmt.Errorf("lc: bad migrate payload"))
		return
	}
	dest, ok := lc.resolve(mr.DestNode)
	if !ok {
		req.Respond(protocol.MigrateVMResponse{OK: false, Error: "unknown destination node"})
		return
	}
	err := lc.node.MigrateTo(mr.VM, dest, func(err error) {
		if err != nil {
			req.Respond(protocol.MigrateVMResponse{OK: false, Error: err.Error()})
			return
		}
		req.Respond(protocol.MigrateVMResponse{OK: true})
	})
	if err != nil {
		req.Respond(protocol.MigrateVMResponse{OK: false, Error: err.Error()})
	}
}

// onRejoin implements the GL's rebalancing lever: the LC abandons its
// current GM and re-runs the join protocol (it will be assigned to the
// least-loaded GM on the next GL heartbeat).
func (lc *LC) onRejoin(req *transport.Request) {
	lc.mu.Lock()
	gmID := lc.gmID
	assigned := lc.gmAddr != ""
	lc.gmAddr = ""
	lc.gmID = ""
	lc.mu.Unlock()
	if assigned {
		lc.bus.LeaveGroup(protocol.GroupGMPrefix+string(gmID), lc.addr)
	}
	req.Respond(struct{}{})
}

func (lc *LC) onSuspend(req *transport.Request) {
	if err := lc.node.Suspend(); err != nil {
		req.RespondErr(err)
		return
	}
	req.Respond(struct{}{})
}

// ---------------------------------------------------------------------------
// Periodic work
// ---------------------------------------------------------------------------

// tick is the LC's periodic work, every MonitorPeriod: a monitoring report,
// then the GM liveness check.
func (lc *LC) tick() {
	lc.monitorTick()
	lc.livenessTick()
}

// monitorTick sends monitoring data, which doubles as the LC heartbeat and
// feeds the GM's overload/underload detector.
func (lc *LC) monitorTick() {
	if lc.node.Power() != types.PowerOn {
		return
	}
	lc.node.MeterSample()
	lc.mu.Lock()
	gm := lc.gmAddr
	stopped := lc.stopped
	corrupt := lc.corrupt
	lc.mu.Unlock()
	if stopped || gm == "" {
		return
	}
	// The report's slices are fresh on every tick: on the in-process bus the
	// GM keeps the very slices sent here.
	status, vms := lc.node.Snapshot()
	rep := protocol.MonitorReport{Status: status, VMs: vms, AtNs: int64(lc.rt.Now())}
	if corrupt != nil {
		rep = corrupted(corrupt, rep)
	}
	_ = lc.bus.Send(lc.addr, gm, protocol.KindMonitor, rep)
}

// corrupted returns rep as the gray-failure hook fn mutates it. fn gets a
// copy, so the report of an uncorrupted tick stays off the heap until it is
// sent.
func corrupted(fn func(*protocol.MonitorReport), rep protocol.MonitorReport) protocol.MonitorReport {
	fn(&rep)
	return rep
}

// livenessTick implements GM failure detection: "LCs which were previously
// assigned to the failed GM fail to receive its GM heartbeats and rejoin the
// system" (Section II-E).
func (lc *LC) livenessTick() {
	if lc.node.Power() != types.PowerOn {
		return
	}
	lc.mu.Lock()
	if lc.stopped || lc.gmAddr == "" {
		lc.mu.Unlock()
		return
	}
	if lc.rt.Now()-lc.lastGMBeat <= lc.cfg.GMTimeout {
		lc.mu.Unlock()
		return
	}
	gmID := lc.gmID
	lc.gmAddr = ""
	lc.gmID = ""
	lc.mu.Unlock()
	lc.bus.LeaveGroup(protocol.GroupGMPrefix+string(gmID), lc.addr)
}
