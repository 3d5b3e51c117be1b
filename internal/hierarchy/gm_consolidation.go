package hierarchy

import (
	"fmt"
	"sort"
	"time"

	"snooze/internal/consolidation"
	"snooze/internal/consolidation/online"
	"snooze/internal/protocol"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// This file adapts the Manager's GM role to the online consolidation
// optimizer (internal/consolidation/online): the Host implementation the
// optimizer plans and executes through, plus the control surface the
// gm.consolidation protocol message and the api/v1 backends use.

// optimizerLocked lazily creates the optimizer (not started) so the control
// surface can report and start it even when Consolidation.Enabled is off.
func (m *Manager) optimizerLocked() *online.Optimizer {
	if m.optimizer == nil {
		cfg := m.cfg.Consolidation
		cfg.Tracer = m.cfg.Tracer
		m.optimizer = online.New(m.rt, gmHost{m}, cfg)
	}
	return m.optimizer
}

// ConsolidationStatus reports the online optimizer's state; ok is false when
// this manager is not currently in the GM role.
func (m *Manager) ConsolidationStatus() (online.Status, bool) {
	return m.consolidationCtl(protocol.ConsolidationStatus)
}

// StartConsolidation starts the online optimizer (idempotent); ok is false
// when this manager is not currently in the GM role.
func (m *Manager) StartConsolidation() (online.Status, bool) {
	return m.consolidationCtl(protocol.ConsolidationStart)
}

// StopConsolidation stops the online optimizer and abandons any in-flight
// plan; ok is false when this manager is not currently in the GM role.
func (m *Manager) StopConsolidation() (online.Status, bool) {
	return m.consolidationCtl(protocol.ConsolidationStop)
}

func (m *Manager) consolidationCtl(action string) (online.Status, bool) {
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		return online.Status{}, false
	}
	opt := m.optimizerLocked()
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

// gmHost adapts the Manager to the optimizer's Host interface. None of its
// methods are called with the optimizer's lock held (the optimizer's
// documented invariant), so they may take m.mu freely.
type gmHost struct{ m *Manager }

// ConsolidationSnapshot implements online.Host: the schedulable LCs with
// their reservations and view statistics, and every running VM priced through
// the shared view helper (p95 windowed demand, snapshot fallback) — the same
// chain the demand=p95 API dry run uses.
func (h gmHost) ConsolidationSnapshot() (online.Snapshot, bool) {
	m := h.m
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		return online.Snapshot{}, false
	}
	now := m.rt.Now()
	snap := online.Snapshot{Now: now, Epoch: m.viewEpoch}
	for _, lc := range m.lcs {
		if lc.sleeping || lc.busy > 0 || lc.status.Power != types.PowerOn {
			continue
		}
		snap.Nodes = append(snap.Nodes, m.nodeLoadLocked(now, lc))
		for _, vm := range lc.vms {
			if vm.State != types.VMRunning {
				continue
			}
			snap.VMs = append(snap.VMs, consolidation.LiveVM{
				Spec:   vm.Spec,
				Node:   lc.id,
				Demand: m.views.ConsolidationDemand(now, vm),
			})
		}
	}
	m.mu.Unlock()
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].Spec.ID < snap.Nodes[j].Spec.ID })
	sort.Slice(snap.VMs, func(i, j int) bool { return snap.VMs[i].Spec.ID < snap.VMs[j].Spec.ID })
	return snap, true
}

// NodeLoad implements online.Host: a fresh view of one node for
// pre-migration re-validation.
func (h gmHost) NodeLoad(id types.NodeID) (online.NodeLoad, bool) {
	m := h.m
	m.mu.Lock()
	defer m.mu.Unlock()
	lc, ok := m.lcs[id]
	if !ok || lc.sleeping || lc.busy > 0 || lc.status.Power != types.PowerOn {
		return online.NodeLoad{}, false
	}
	return m.nodeLoadLocked(m.rt.Now(), lc), true
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

// Migrate implements online.Host via the Manager's migration primitive.
func (h gmHost) Migrate(mig types.Migration, done func(ok bool)) {
	m := h.m
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		m.rt.After(0, func() { done(false) })
		return
	}
	m.migrateVMLocked(mig, done)
	m.mu.Unlock()
}

// Emit implements online.Host. The online optimizer's event rate is one per
// round plus one per migration, so adopting the map via AttrsFromMap (rather
// than widening the Host interface to the telemetry type) costs nothing.
func (h gmHost) Emit(typ, entity string, attrs map[string]string) {
	h.m.emit(typ, entity, telemetry.AttrsFromMap(attrs))
}

// Mark implements online.Host.
func (h gmHost) Mark(name string, delta int64) { h.m.mark(name, delta) }
