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

	// VMLivenessGrace drives the GM's deployment-level VM liveness sweep:
	// a vm/* series whose VM is absent from this GM's inventory AND has not
	// recorded a sample for this long is declared vanished — the GM journals
	// a synthetic terminal vm.state event and drops the series, closing the
	// leak left by VMs that disappear without any terminal event (migration
	// races, LC crashes mid-handoff). The sweep is journal-armed, not
	// polled: lifecycle/membership events and inventory shrinkage schedule
	// exact-deadline checks. 0 selects 4 × LCTimeout; negative disables.
	// The staleness requirement makes the sweep safe on a hub shared by
	// several GMs: a VM alive under another GM keeps appending samples and
	// is never stale, while a VM on a deliberately suspended LC stays in
	// its GM's inventory.
	VMLivenessGrace time.Duration

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
	orDefault(&c.VMLivenessGrace, 4*c.LCTimeout)
	return c
}

// orDefault sets *v to def when it holds its type's zero value.
func orDefault[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// lcRecord is the GM's view of one Local Controller.
type lcRecord struct {
	id       types.NodeID
	addr     transport.Address
	oob      transport.Address
	status   types.NodeStatus
	vms      []types.VMStatus
	lastSeen time.Duration
	sleeping bool   // suspended by the energy manager (deliberate, not a failure)
	sleepGen uint64 // node generation when suspend was ordered; fences stale reports
	waking   bool
	busy     int // in-flight migrations involving this LC
	// idleAnnounced tracks whether the current idle stretch has already
	// produced a node.idle journal event (reset by any non-idle report), so
	// the event-driven energy manager sees each idle transition exactly once.
	idleAnnounced bool
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

// pendingPlacement is a VM waiting for capacity (typically a wake).
type pendingPlacement struct {
	spec     types.VMSpec
	deadline time.Duration
	respond  func(node types.NodeID, ok bool)
	// trace is the originating dispatch's span context, so the retried
	// placement joins the submit chain when it finally runs.
	trace obs.SpanContext
}

// Manager is one GM/GL process. It enrolls in the GL election at Start; the
// election outcome selects which role's state machine is active.
type Manager struct {
	rt    simkernel.Runtime
	bus   *transport.Bus
	cfg   ManagerConfig
	tel   *telemetry.Hub
	views view.Builder
	cand  *election.Candidate

	mu   sync.Mutex
	role Role
	// GM state.
	glAddr  transport.Address
	joined  bool
	lcs     map[types.NodeID]*lcRecord
	pending []pendingPlacement
	// The two journal-armed loops of the GM role: event-driven energy
	// management (idle checks) and the VM liveness sweep.
	energy deadline
	sweep  deadline
	// optimizer is the online consolidation service (GM role), created
	// lazily and reused across GM stints. The optimizer never holds its own
	// lock while calling back into the Manager, so m.mu → optimizer-lock is
	// the only ordering.
	optimizer *online.Optimizer
	// GL state.
	gms   map[types.GroupManagerID]*gmRecord
	epoch uint64

	tickers []*simkernel.Ticker
	stopped bool

	// lastRollup is the virtual time of the last GM rollup append (GM role,
	// under mu); 0 means none yet this stint.
	lastRollup time.Duration

	// viewEpoch is the GM-wide cache epoch (under mu): the O(1) group-level
	// stand-in for "max of the member series' Store.Generations", bumped by
	// every state change that can alter the capacity views the GM schedules
	// over — monitor ingestion (member appends), optimistic reservations and
	// their rollbacks, migrations, sleep/wake transitions, membership churn.
	// viewMemo keys whole []view.Node builds on it, and the relocation /
	// consolidation scans skip outright when it has not moved.
	viewEpoch uint64
	viewMemo  view.Memo
}

// bumpViewEpochLocked advances the GM-wide view epoch; m.mu must be held.
func (m *Manager) bumpViewEpochLocked() { m.viewEpoch++ }

// ViewEpoch returns the current GM-wide view epoch (instrumentation/tests).
func (m *Manager) ViewEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewEpoch
}

// ViewMemoCounters returns the lifetime hit/miss counts of the memoized
// whole-group view builds (instrumentation/tests).
func (m *Manager) ViewMemoCounters() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewMemo.Counters()
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
		lcs: make(map[types.NodeID]*lcRecord),
		gms: make(map[types.GroupManagerID]*gmRecord),
	}
	m.energy = deadline{m: m, fire: m.gmEnergyCheck, onKick: m.gmEnergyCheck,
		events: []string{telemetry.EventNodeIdle, telemetry.EventNodeNormal, telemetry.EventVMState, telemetry.EventLCJoin}}
	m.sweep = deadline{m: m, fire: m.gmVMSweep, onKick: m.armVMSweep,
		events: []string{telemetry.EventVMState, telemetry.EventLCFailed, telemetry.EventLCJoin, telemetry.EventGMFailed}}
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

// Role returns the current role.
func (m *Manager) Role() Role {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.role
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
	m.mu.Lock()
	m.stopped = true
	m.role = RoleIdle
	tickers := m.tickers
	m.tickers = nil
	m.stopEnergyLocked()
	m.mu.Unlock()
	for _, t := range tickers {
		t.Stop()
	}
	m.cand.Resign()
	m.bus.Unregister(m.cfg.Addr)
}

// Crash simulates a fail-stop crash: the process vanishes without resigning
// gracefully — the election notices via session expiry, peers via missing
// heartbeats. Used by the fault-injection experiments.
func (m *Manager) Crash() {
	m.mu.Lock()
	m.stopped = true
	m.role = RoleIdle
	tickers := m.tickers
	m.tickers = nil
	m.stopEnergyLocked()
	m.mu.Unlock()
	for _, t := range tickers {
		t.Stop()
	}
	m.cand.Abandon()
	m.bus.SetDown(m.cfg.Addr, true)
}

// Restart revives a crashed manager: the bus address comes back up, the
// handler is re-registered and the process re-enters the GL election as a
// fresh candidate. Its telemetry history is still on the deployment's shared
// hub. Restart fails while the crashed incarnation's election session has not
// expired yet; callers retry after the session TTL.
func (m *Manager) Restart() error {
	m.mu.Lock()
	m.stopped = false
	m.role = RoleIdle
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

// onElection reacts to election transitions: follower → run the GM role
// against the new leader; leader → promote to GL (Section II-E: "When an
// existing GM becomes the new leader it switches to GL mode").
func (m *Manager) onElection(st election.State, leaderID string) {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	switch st {
	case election.StateLeader:
		m.becomeGLLocked()
		m.mu.Unlock()
	case election.StateFollower:
		m.becomeGMLocked(transport.Address(leaderID))
		m.mu.Unlock()
	default:
		m.mu.Unlock()
	}
}

// stopTickersLocked halts the current role's periodic work, including the
// event-driven energy machinery.
func (m *Manager) stopTickersLocked() {
	for _, t := range m.tickers {
		t.Stop()
	}
	m.tickers = nil
	m.stopEnergyLocked()
	if m.optimizer != nil {
		m.optimizer.Stop()
	}
}

// stopEnergyLocked detaches the journal observers and cancels any scheduled
// idle check or liveness sweep.
func (m *Manager) stopEnergyLocked() {
	m.energy.stopLocked()
	m.sweep.stopLocked()
}

func (m *Manager) addTicker(period time.Duration, fn func()) {
	t := simkernel.NewTicker(m.rt, period, fn)
	m.tickers = append(m.tickers, t)
	t.Start()
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
	case protocol.KindAnomaly:
		m.gmOnAnomaly(req)
	case protocol.KindPlace:
		m.gmOnPlace(req)
	case protocol.KindShed:
		m.gmOnShed(req)
	case protocol.KindLCList:
		m.gmOnLCList(req)
	case protocol.KindInventory:
		m.gmOnInventory(req)
	case protocol.KindConsolidation:
		m.gmOnConsolidation(req)
	default:
		req.RespondErr(fmt.Errorf("manager %s: unknown message kind %q", m.cfg.ID, req.Kind))
	}
}
