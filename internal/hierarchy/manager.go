package hierarchy

import (
	"fmt"
	"sync"
	"time"

	"snooze/internal/consolidation/online"
	"snooze/internal/coord"
	"snooze/internal/election"
	"snooze/internal/metrics"
	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/resource"
	"snooze/internal/scheduling"
	"snooze/internal/scheduling/view"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// Role is a Manager's current hierarchy role.
type Role int

// Manager roles. The paper's self-organization promotes a GM to GL
// dynamically during leader election (Section II-D); there is no statically
// configured leader.
const (
	RoleIdle Role = iota
	RoleGM
	RoleGL
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleIdle:
		return "idle"
	case RoleGM:
		return "GM"
	case RoleGL:
		return "GL"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// ManagerConfig parameterizes a Manager (GM/GL process). NewManager fills
// every zero or nil field from DefaultManagerConfig (see withDefaults), so a
// caller sets only what it wants to differ.
type ManagerConfig struct {
	ID   types.GroupManagerID
	Addr transport.Address

	// Timers.
	HeartbeatPeriod time.Duration // GM→LC group and GL→GroupGL heartbeats
	SummaryPeriod   time.Duration // GM→GL summary push
	LCTimeout       time.Duration // declare LC dead (Section II-E)
	GMTimeout       time.Duration // GL declares GM dead
	CallTimeout     time.Duration // placement probe RPCs
	SessionTTL      time.Duration // election session TTL (failure detection)

	// Policies (Section II-C).
	Dispatch  scheduling.DispatchPolicy
	Placement scheduling.PlacementPolicy
	Overload  scheduling.RelocationPolicy
	Underload scheduling.RelocationPolicy

	// Demand estimation (Section II-B). Estimates are computed over the
	// telemetry store's retained per-VM series (see view.Builder.Demand);
	// the estimator reduces the windowed samples to one demand vector.
	Estimator resource.Estimator

	// Capacity views: every scheduling decision consumes views built from
	// the Telemetry hub over this window (default view.DefaultHorizon). Thin
	// or stale histories (view.DefaultMinSamples, view.DefaultMaxAge) fall
	// back to the point-in-time snapshot inside the policies.
	ViewHorizon time.Duration

	// Energy management (Section III).
	EnergyEnabled  bool
	IdleThreshold  time.Duration // idle time before suspend
	PendingTimeout time.Duration // how long a placement may wait for a wake

	// Consolidation configures the consolidation service
	// (internal/consolidation/online), the one engine behind the
	// reconfiguration policy family of Section II-C: with Enabled set, every
	// GM stint runs an Optimizer that periodically re-packs the group's VMs
	// from p95 capacity views within a per-round migration budget
	// (MigrationBudget -1: every round executes its whole plan — periodic
	// reconfiguration). Whether or not Enabled is set, the optimizer can be
	// started and stopped at runtime via the gm.consolidation control
	// message (api/v1 consolidation routes).
	Consolidation online.Config

	// RescheduleOnLCFailure re-places the VMs of a failed LC on the
	// surviving LCs (the hypervisor-snapshot recovery of Section II-E).
	RescheduleOnLCFailure bool

	// Metrics receives counters and latency series (may be nil).
	Metrics *metrics.Registry

	// Tracer records decision traces for dispatch, placement, relocation,
	// migration, energy and consolidation actions (nil disables tracing;
	// every instrumentation site is a no-op then).
	Tracer *obs.Tracer

	// Telemetry is the deployment-wide telemetry hub that every manager of
	// the deployment shares: monitoring reports and group summaries feed its
	// time-series store, membership changes and the anomaly detector feed its
	// event journal, and the GM runs relocation off the detector's
	// node.overload / node.underload events. Because the managers share it, a
	// GM that takes over a failed GM's LCs reads their history directly — warm
	// failover needs no state copy. Nil creates a hub with default settings
	// for this manager alone (standalone use and unit-test rigs).
	Telemetry *telemetry.Hub
}

// electionBase is the coordination path of the GL election.
const electionBase = "/snooze/election"

// DefaultManagerConfig returns the configuration used by the experiments; it
// is the single statement of what each default is.
func DefaultManagerConfig(id types.GroupManagerID, addr transport.Address) ManagerConfig {
	return ManagerConfig{
		ID:              id,
		Addr:            addr,
		HeartbeatPeriod: 2 * time.Second,
		SummaryPeriod:   4 * time.Second,
		LCTimeout:       12 * time.Second,
		GMTimeout:       12 * time.Second,
		CallTimeout:     90 * time.Second,
		SessionTTL:      6 * time.Second,
		Dispatch:        &scheduling.RoundRobinDispatch{},
		Placement:       scheduling.FirstFit{},
		Overload:        scheduling.OverloadRelocation{},
		Underload:       scheduling.UnderloadRelocation{},
		Estimator:       resource.LastValue{},
		ViewHorizon:     view.DefaultHorizon,
		EnergyEnabled:   false,
		IdleThreshold:   30 * time.Second,
		PendingTimeout:  60 * time.Second,
	}
}

// withDefaults normalises a config: every zero or nil field that has a default
// takes DefaultManagerConfig's value, the view horizon also when negative.
// Fields whose zero is meaningful (the bools, Consolidation, the wiring) pass
// through.
func (c ManagerConfig) withDefaults() ManagerConfig {
	d := DefaultManagerConfig(c.ID, c.Addr)
	orDefault(&c.HeartbeatPeriod, d.HeartbeatPeriod)
	orDefault(&c.SummaryPeriod, d.SummaryPeriod)
	orDefault(&c.LCTimeout, d.LCTimeout)
	orDefault(&c.GMTimeout, d.GMTimeout)
	orDefault(&c.CallTimeout, d.CallTimeout)
	orDefault(&c.SessionTTL, d.SessionTTL)
	orDefault(&c.Dispatch, d.Dispatch)
	orDefault(&c.Placement, d.Placement)
	orDefault(&c.Overload, d.Overload)
	orDefault(&c.Underload, d.Underload)
	orDefault(&c.Estimator, d.Estimator)
	orDefault(&c.IdleThreshold, d.IdleThreshold)
	orDefault(&c.PendingTimeout, d.PendingTimeout)
	if c.ViewHorizon <= 0 {
		c.ViewHorizon = d.ViewHorizon
	}
	return c
}

// orDefault sets *v to def when it holds its type's zero value.
func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// lcRecord is the GM's view of one Local Controller: its last measured status
// plus the reservations of placements since. The ledger says what it hosts.
type lcRecord struct {
	id       types.NodeID
	addr     transport.Address
	oob      transport.Address
	status   types.NodeStatus
	lastSeen time.Duration
	sleeping bool   // suspended by the energy manager (deliberate, not a failure)
	sleepGen uint64 // node generation when suspend was ordered; fences stale reports
	waking   bool
	hosted   []*vmEntry // entries starting or running here, or migrating out
	busy     int        // in-flight migrations involving this LC
	// idleAnnounced tracks whether the current idle stretch has already
	// produced a node.idle journal event (reset by any non-idle report), so
	// the event-driven energy manager sees each idle transition exactly once.
	idleAnnounced bool
}

// vmState is the phase a VM is in, as far as its GM knows.
type vmState uint8

const (
	vmGone      vmState = iota // not in the ledger
	vmPending                  // waiting for capacity (a wake) until its deadline
	vmStarting                 // StartVM in flight to node
	vmRunning                  // hosted on node
	vmMigrating                // live migration from node to dst in flight
)

// vmPhase is a VM's state and the LCs it involves.
type vmPhase struct {
	state vmState
	node  *lcRecord // starting, running: the host; migrating: the source
	dst   *lcRecord // migrating: the destination
	from  *lcRecord // the last migration's source, whose listings of the VM are stale
}

// tally adds d to the pending count, or to the busy counts of a migration's LCs.
func (p vmPhase) tally(waiting *int, d int) {
	switch p.state {
	case vmPending:
		*waiting += d
	case vmMigrating:
		p.node.busy += d
		p.dst.busy += d
	}
}

// vmEntry is one VM in the ledger.
type vmEntry struct {
	vmPhase
	slot int            // index in node.hosted
	vm   types.VMStatus // the spec and the status the last listing report gave
	// grace lets a VM migrated to its node be omitted by one report of the
	// node, which may predate the transfer: the second omission departs.
	grace    bool
	seen     uint64        // m.seq of the last report that listed the VM
	attempt  int           // migrating: the attempt number
	deadline time.Duration // pending: when the placement expires
	seq      uint64        // pending: queue order
	waiters  waiters       // pending, starting: the requests awaiting the outcome
}

// waiters are the PlaceRequests awaiting one VM's outcome; duplicates join more.
type waiters struct {
	first *placeReply
	more  []*placeReply
}

func (w waiters) answer(id types.VMID, node types.NodeID, ok bool) {
	if w.first != nil {
		w.first.answer(id, node, ok)
	}
	for _, r := range w.more {
		r.answer(id, node, ok)
	}
}

// placeReply answers one PlaceRequest once each of its VMs has an outcome.
type placeReply struct {
	req       *transport.Request
	trace     obs.SpanContext // the dispatch span the placements join
	mu        sync.Mutex
	resp      protocol.PlaceResponse
	remaining int
}

func (r *placeReply) answer(id types.VMID, node types.NodeID, ok bool) {
	r.mu.Lock()
	if ok {
		r.resp.Placed[id] = node
	} else {
		r.resp.Unplaced = append(r.resp.Unplaced, id)
	}
	r.remaining--
	done := r.remaining == 0
	r.mu.Unlock()
	if done {
		r.req.Respond(r.resp)
	}
}

// gmRecord is the GL's view of one Group Manager. scheduling is the policy
// configuration the GM itself reported in its summary pushes (nil until the
// first push carrying one arrives).
type gmRecord struct {
	id         types.GroupManagerID
	addr       transport.Address
	summary    types.GroupSummary
	scheduling *protocol.SchedulingInfo
	lastSeen   time.Duration
}

// shedGate holds the GL's next rebalancing shed back while the LCs of the
// last one are between GMs: their donor no longer counts them, their new GM
// does not yet, and a summary the donor pushed before it shed still counts
// them. It opens one summary period after as many LCs as the shed asked for
// have been assigned, so each GM has pushed a summary since, or LCTimeout
// after the shed if fewer were released or rejoined.
type shedGate struct {
	pending int           // LCs the last shed asked for, not yet reassigned
	until   time.Duration // no shed before this time
}

// Manager is one manager process. It enrolls in the GL election at Start and
// runs a sequence of role stints (Sections II-D, II-E): a GM stint (gm) while
// another manager leads, a GL stint (gl) while this one does. At most one of
// them is non-nil, and neither is while the manager is idle. A stint holds its
// role's state, periodic work and exit hand-off, so a new stint starts empty;
// onElection and halt are the only places one begins or ends. The Manager
// itself holds only what every role shares.
type Manager struct {
	rt    simkernel.Runtime
	bus   *transport.Bus
	cfg   ManagerConfig
	tel   *telemetry.Hub
	views view.Builder
	cand  *election.Candidate

	mu      sync.Mutex // guards the fields below and the state of both stints
	stopped bool
	gm      *gmStint
	gl      *glStint
}

// ViewMemoCounters returns the lifetime hit/miss counts of the manager's
// per-entity view cache (view.Cache), which its GL and GM builds share
// (instrumentation/tests). The bench's hierarchy.view_memo_hit_ratio is the
// hit ratio of these counts summed over the managers.
func (m *Manager) ViewMemoCounters() (hits, misses uint64) {
	return m.views.Cache.Counters()
}

// NewManager creates a Manager. svc is the coordination service used for
// leader election.
func NewManager(rt simkernel.Runtime, bus *transport.Bus, svc *coord.Service, cfg ManagerConfig) *Manager {
	cfg = cfg.withDefaults()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewHub(telemetry.Options{Metrics: cfg.Metrics})
	}
	m := &Manager{
		rt:  rt,
		bus: bus,
		cfg: cfg,
		tel: cfg.Telemetry,
		views: view.Builder{
			Hub:     cfg.Telemetry,
			Horizon: cfg.ViewHorizon,
			// The builder lives as long as the manager, so generation-keyed
			// caching makes repeated builds between monitoring reports (GL
			// dispatch fan-out, GM relocation scans) map lookups.
			Cache: view.NewCache(),
		},
	}
	if cfg.Metrics != nil {
		cfg.Metrics.SetGauge("scheduler.view-horizon-ns", float64(cfg.ViewHorizon))
	}
	m.cand = election.NewCandidate(svc, rt, election.Config{
		Base:       electionBase,
		ID:         string(cfg.Addr),
		SessionTTL: cfg.SessionTTL,
		Listener:   m.onElection,
	})
	return m
}

// ID returns the manager's identifier.
func (m *Manager) ID() types.GroupManagerID { return m.cfg.ID }

// Addr returns the manager's bus address.
func (m *Manager) Addr() transport.Address { return m.cfg.Addr }

// Role returns the role of the current stint.
func (m *Manager) Role() Role {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.gl != nil:
		return RoleGL
	case m.gm != nil:
		return RoleGM
	}
	return RoleIdle
}

// Start registers on the bus and joins the GL election ("when a GM first
// attempts to join the system, a leader election algorithm is triggered",
// Section II-D).
func (m *Manager) Start() error {
	m.bus.Register(m.cfg.Addr, m.handle)
	return m.cand.Join()
}

// Stop halts all periodic work and resigns from the election.
func (m *Manager) Stop() {
	m.halt()
	m.cand.Resign()
	m.bus.Unregister(m.cfg.Addr)
}

// Crash simulates a fail-stop crash: the process vanishes without resigning
// gracefully — the election notices via session expiry, peers via missing
// heartbeats. Used by the fault-injection experiments.
func (m *Manager) Crash() {
	m.halt()
	m.cand.Abandon()
	m.bus.SetDown(m.cfg.Addr, true)
}

// halt ends the current stint and idles the manager, for Stop and Crash.
func (m *Manager) halt() {
	m.mu.Lock()
	m.stopped = true
	m.endStintLocked()
	m.mu.Unlock()
}

// Restart revives a crashed manager: the bus address comes back up, the
// handler is re-registered and the process re-enters the GL election as a
// fresh candidate, whose first stint starts empty. Its telemetry history is
// still on the deployment's shared hub. Restart fails while the crashed
// incarnation's election session has not expired yet; callers retry after the
// session TTL.
func (m *Manager) Restart() error {
	m.mu.Lock()
	m.stopped = false
	m.mu.Unlock()
	m.bus.SetDown(m.cfg.Addr, false)
	m.bus.Register(m.cfg.Addr, m.handle)
	return m.cand.Join()
}

// mark records a counter if metrics are configured.
func (m *Manager) mark(name string, delta int64) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Inc(name, delta)
	}
}

func (m *Manager) observe(name string, d time.Duration) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.ObserveDuration(name, d)
	}
}

func (m *Manager) observeValue(name string, v float64) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Observe(name, v)
	}
}

// Telemetry returns the manager's telemetry hub (shared across the
// deployment when wired through cluster.Config / snoozed, this manager's own
// otherwise).
func (m *Manager) Telemetry() *telemetry.Hub { return m.tel }

// schedulingInfo reports this manager's active scheduling configuration. It
// travels with topology exports, inventory responses and the GM's summary
// pushes, so operators see the policies each group actually runs (managers
// need not share one config template). cfg is immutable after NewManager, so
// no lock is needed.
func (m *Manager) schedulingInfo() protocol.SchedulingInfo {
	return protocol.SchedulingInfo{
		Dispatch:      m.cfg.Dispatch.Name(),
		Placement:     m.cfg.Placement.Name(),
		Overload:      m.cfg.Overload.Name(),
		Underload:     m.cfg.Underload.Name(),
		Estimator:     m.cfg.Estimator.Name(),
		ViewHorizonNs: int64(m.cfg.ViewHorizon),
	}
}

// emit publishes a hierarchy event on the telemetry journal.
func (m *Manager) emit(typ, entity string, attrs telemetry.Attrs) {
	m.tel.Emit(typ, entity, m.rt.Now(), attrs)
}

// vmStateAttrs builds a vm.state attribute set from key/value pairs, tagging
// it with the decision trace ID when one is active so watch streams correlate
// with /v1/traces. The inline Attrs representation keeps this allocation-free
// on the emit hot path.
func vmStateAttrs(sc obs.SpanContext, kv ...string) telemetry.Attrs {
	attrs := telemetry.A(kv...)
	if sc.Valid() {
		attrs.Set("trace", sc.TraceID)
	}
	return attrs
}

// onElection is the one place a stint begins, and with halt the one place
// one ends. A follower runs a GM stint against the leader; the leader closes
// it and opens a GL stint (Section II-E: "When an existing GM becomes the new
// leader it switches to GL mode"), whose epoch is its election znode's. A new
// leader while the manager is a GM stays inside the GM stint, which follows it.
func (m *Manager) onElection(st election.State, leaderID string) {
	epoch := m.cand.Epoch()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	switch {
	case st == election.StateLeader && m.gl == nil:
		m.endStintLocked()
		m.gl = m.newGLStint(epoch)
	case st == election.StateFollower:
		if m.gm == nil {
			m.endStintLocked()
			m.gm = m.newGMStint()
		}
		m.gm.follow(transport.Address(leaderID))
	}
}

// endStintLocked closes the current stint, if any.
func (m *Manager) endStintLocked() {
	if m.gm != nil {
		m.gm.close()
		m.gm = nil
	}
	if m.gl != nil {
		m.gl.close()
		m.gl = nil
	}
}

// lockGM takes m.mu and returns the current GM stint; when the manager is not
// a GM it returns nil with m.mu released.
func (m *Manager) lockGM() *gmStint {
	m.mu.Lock()
	g := m.gm
	if g == nil {
		m.mu.Unlock()
	}
	return g
}

// readGM runs f on the current GM stint under m.mu, if the manager is a GM.
func (m *Manager) readGM(f func(g *gmStint)) {
	if g := m.lockGM(); g != nil {
		f(g)
		m.mu.Unlock()
	}
}

// lockGL takes m.mu and returns the current GL stint; when the manager is not
// the GL it returns nil with m.mu released.
func (m *Manager) lockGL() *glStint {
	m.mu.Lock()
	l := m.gl
	if l == nil {
		m.mu.Unlock()
	}
	return l
}

// tickers are a stint's periodic work.
type tickers []*simkernel.Ticker

func (ts *tickers) add(rt simkernel.Runtime, period time.Duration, fn func()) {
	t := simkernel.NewTicker(rt, period, fn)
	*ts = append(*ts, t)
	t.Start()
}

func (ts *tickers) stop() {
	for _, t := range *ts {
		t.Stop()
	}
	*ts = nil
}

// handle dispatches inbound messages to the active role.
func (m *Manager) handle(req *transport.Request) {
	switch req.Kind {
	// GL-role messages.
	case protocol.KindGMJoin:
		m.glOnGMJoin(req)
	case protocol.KindSummary:
		m.glOnSummary(req)
	case protocol.KindLCAssign:
		m.glOnLCAssign(req)
	case protocol.KindSubmit:
		m.glOnSubmit(req)
	case protocol.KindTopology:
		m.glOnTopology(req)
	// GM-role messages.
	case protocol.KindLCJoin:
		m.gmOnLCJoin(req)
	case protocol.KindMonitor:
		m.gmOnMonitor(req)
	case protocol.KindPlace:
		m.gmOnPlace(req)
	case protocol.KindShed:
		m.gmOnShed(req)
	case protocol.KindInventory:
		m.gmOnInventory(req)
	case protocol.KindConsolidation:
		m.gmOnConsolidation(req)
	default:
		req.RespondErr(fmt.Errorf("manager %s: unknown message kind %q", m.cfg.ID, req.Kind))
	}
}
