package hierarchy

import (
	"fmt"
	"sort"
	"time"

	"snooze/internal/consolidation"
	"snooze/internal/consolidation/online"
	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// This file adapts a GM stint to the online consolidation optimizer
// (internal/consolidation/online): the Host implementation the optimizer
// plans and executes through, plus the control surface the gm.consolidation
// protocol message and the api/v1 backends use.

// optimizerLocked lazily creates the stint's optimizer (not started) so the
// control surface can report and start it even when Consolidation.Enabled is
// off.
func (g *gmStint) optimizerLocked() *online.Optimizer {
	if g.optimizer == nil {
		cfg := g.cfg.Consolidation
		cfg.Tracer = g.cfg.Tracer
		g.optimizer = online.New(g.rt, g, cfg)
	}
	return g.optimizer
}

// consolidationCtl applies a gm.consolidation action to the stint's
// optimizer and returns its state; ok is false when this manager is not
// currently in the GM role.
func (m *Manager) consolidationCtl(action string) (online.Status, bool) {
	g := m.lockGM()
	if g == nil {
		return online.Status{}, false
	}
	opt := g.optimizerLocked()
	m.mu.Unlock()
	switch action {
	case protocol.ConsolidationStart:
		opt.Start()
	case protocol.ConsolidationStop:
		opt.Stop()
	}
	return opt.Status(), true
}

// gmOnConsolidation serves the gm.consolidation control message.
func (m *Manager) gmOnConsolidation(req *transport.Request) {
	cr, ok := req.Payload.(protocol.ConsolidationCtlRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	action := cr.Action
	if action == "" {
		action = protocol.ConsolidationStatus
	}
	switch action {
	case protocol.ConsolidationStatus, protocol.ConsolidationStart, protocol.ConsolidationStop:
	default:
		req.RespondErr(fmt.Errorf("manager %s: unknown consolidation action %q", m.cfg.ID, cr.Action))
		return
	}
	st, active := m.consolidationCtl(action)
	if !active {
		req.RespondErr(fmt.Errorf("manager %s: not in the GM role", m.cfg.ID))
		return
	}
	resp := protocol.ConsolidationCtlResponse{
		GM:         m.cfg.ID,
		Running:    st.Running,
		InRound:    st.InRound,
		Rounds:     st.Rounds,
		Migrations: st.Migrations,
		Cancels:    st.Cancels,
		Failures:   st.Failures,
		Budget:     st.Budget,
		PeriodNs:   int64(st.Period),
	}
	if st.LastRound != nil {
		lr := *st.LastRound
		resp.LastRound = &protocol.ConsolidationRound{
			Round:       lr.Round,
			AtNs:        int64(lr.At),
			HostsBefore: lr.HostsBefore,
			HostsAfter:  lr.HostsAfter,
			Planned:     lr.Planned,
			Executed:    lr.Executed,
			Failed:      lr.Failed,
			Cancelled:   lr.Cancelled,
		}
	}
	req.Respond(resp)
}

// A GM stint is its optimizer's online.Host. None of the Host methods are
// called with the optimizer's lock held (the optimizer's documented
// invariant), so they may take m.mu freely. Once the stint has closed, it
// offers nothing to plan on and migrates nothing.

// ConsolidationSnapshot implements online.Host: the schedulable LCs with
// their reservations and view statistics, and every running VM priced through
// the shared view helper (p95 windowed demand, snapshot fallback) — the same
// chain the demand=p95 API dry run uses.
func (g *gmStint) ConsolidationSnapshot() (online.Snapshot, bool) {
	if !g.lock() {
		return online.Snapshot{}, false
	}
	now := g.rt.Now()
	snap := online.Snapshot{Now: now}
	for _, lc := range g.lcs {
		if schedulable(lc) {
			snap.Nodes = append(snap.Nodes, g.nodeLoadLocked(now, lc))
		}
	}
	for _, e := range g.ledger {
		if e.state == vmRunning && e.vm.State == types.VMRunning && schedulable(e.node) {
			snap.VMs = append(snap.VMs, consolidation.LiveVM{
				Spec:   e.vm.Spec,
				Node:   e.node.id,
				Demand: g.views.ConsolidationDemand(now, e.vm),
			})
		}
	}
	g.mu.Unlock()
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].Spec.ID < snap.Nodes[j].Spec.ID })
	sort.Slice(snap.VMs, func(i, j int) bool { return snap.VMs[i].Spec.ID < snap.VMs[j].Spec.ID })
	return snap, true
}

// NodeLoad implements online.Host: a fresh view of one node for
// pre-migration re-validation.
func (g *gmStint) NodeLoad(id types.NodeID) (online.NodeLoad, bool) {
	if !g.lock() {
		return online.NodeLoad{}, false
	}
	defer g.mu.Unlock()
	lc, ok := g.lcs[id]
	if !ok || !schedulable(lc) {
		return online.NodeLoad{}, false
	}
	return g.nodeLoadLocked(g.rt.Now(), lc), true
}

// schedulable reports whether the optimizer may plan on an LC: powered on,
// not asleep and in no migration.
func schedulable(lc *lcRecord) bool {
	return !lc.sleeping && lc.busy == 0 && lc.status.Power == types.PowerOn
}

// nodeLoadLocked is one LC as the optimizer sees it; m.mu must be held.
func (m *Manager) nodeLoadLocked(now time.Duration, lc *lcRecord) online.NodeLoad {
	v := m.views.Node(now, lc.status)
	return online.NodeLoad{
		Spec:     lc.status.Spec,
		Reserved: lc.status.Reserved,
		P95:      v.Stats.P95,
		Trend:    v.Stats.Trend,
		Fresh:    v.Stats.Fresh,
	}
}

// Migrate implements online.Host via the stint's migration primitive.
func (g *gmStint) Migrate(mig types.Migration, done func(ok bool)) {
	if !g.lock() {
		g.rt.After(0, func() { done(false) })
		return
	}
	g.migrateLocked(mig, obs.SpanContext{}, 1, done)
	g.mu.Unlock()
}

// Emit implements online.Host. The online optimizer's event rate is one per
// round plus one per migration, so adopting the map via AttrsFromMap (rather
// than widening the Host interface to the telemetry type) costs nothing.
func (g *gmStint) Emit(typ, entity string, attrs map[string]string) {
	g.emit(typ, entity, telemetry.AttrsFromMap(attrs))
}

// Mark implements online.Host.
func (g *gmStint) Mark(name string, delta int64) { g.mark(name, delta) }
