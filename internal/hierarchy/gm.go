package hierarchy

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/scheduling/view"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/telemetry/sketch"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// This file implements the Group Manager role: monitoring reception, demand
// estimation, VM placement, overload/underload relocation and energy
// management (Sections II-B, II-C, III). The reconfiguration policy family of
// Section II-C — periodic consolidation — is the online optimizer
// (gm_consolidation.go) with an unlimited migration budget.

// becomeGMLocked (re)activates the GM role against the given GL address.
func (m *Manager) becomeGMLocked(gl transport.Address) {
	wasGL := m.role == RoleGL
	sameGL := m.role == RoleGM && m.glAddr == gl
	m.role = RoleGM
	m.glAddr = gl
	m.joined = false
	if wasGL {
		// Demotion: drop GL-side state; our LCs (if any linger from an
		// earlier GM stint) will re-register through monitoring.
		m.gms = make(map[types.GroupManagerID]*gmRecord)
	}
	if !sameGL {
		m.mark("gm.gl-changes", 1)
	}
	m.lastRollup = 0 // fresh stint: first monitor report rolls up immediately
	m.bumpViewEpochLocked()
	m.viewMemo.Invalidate()
	m.stopTickersLocked()
	m.addTicker(m.cfg.HeartbeatPeriod, m.gmHeartbeatTick)
	m.addTicker(m.cfg.SummaryPeriod, m.gmSummaryTick)
	m.addTicker(m.cfg.LCTimeout/3, m.gmSweepTick)
	if m.cfg.EnergyEnabled {
		// Idle detection is event-driven: the journal observer reacts to
		// node.idle / node.normal / vm.state / lc-join events, and each check
		// re-arms itself at the exact moment the earliest idle node ripens.
		// One bootstrap check covers LCs that linger from an earlier GM stint.
		m.energy.observeLocked()
		m.energy.armLocked(m.rt.Now() + m.cfg.IdleThreshold)
	}
	if m.cfg.Consolidation.Enabled {
		// The continuous consolidation service runs for the duration of the
		// GM stint; stopTickersLocked stops it on demotion/promotion.
		m.optimizerLocked().Start()
	}
	if m.cfg.VMLivenessGrace > 0 {
		// The deployment-level VM liveness sweep is journal-armed: lifecycle
		// and membership events (plus inventory shrinkage noticed by
		// gmOnMonitor) schedule exact-deadline reconciliations of the hub's
		// vm/* series against this GM's inventory. One bootstrap sweep
		// covers series that predate this GM stint.
		m.sweep.observeLocked()
		m.sweep.armLocked(m.rt.Now() + m.cfg.VMLivenessGrace)
	}
	// Join the GL immediately (heartbeat-paced retries cover failures).
	m.rt.After(0, m.gmJoinGL)
}

// gmJoinGL enrolls this GM with the current GL.
func (m *Manager) gmJoinGL() {
	m.mu.Lock()
	gl := m.glAddr
	stopped := m.stopped || m.role != RoleGM
	m.mu.Unlock()
	if stopped || gl == "" {
		return
	}
	req := protocol.GMJoinRequest{GM: m.cfg.ID, Addr: string(m.cfg.Addr)}
	m.bus.Call(m.cfg.Addr, gl, protocol.KindGMJoin, req, m.cfg.CallTimeout, func(reply any, err error) {
		if err != nil {
			return // summary ticks retry enrollment implicitly
		}
		if ack, ok := reply.(protocol.GMJoinResponse); ok && ack.Accepted {
			m.mu.Lock()
			m.joined = true
			m.mu.Unlock()
			m.mark("gm.joins", 1)
		}
	})
}

// gmHeartbeatTick multicasts the GM heartbeat to this GM's LC group.
func (m *Manager) gmHeartbeatTick() {
	m.mu.Lock()
	active := m.role == RoleGM && !m.stopped
	m.mu.Unlock()
	if !active {
		return
	}
	hb := protocol.GMHeartbeat{GM: m.cfg.ID, Addr: string(m.cfg.Addr)}
	m.bus.Multicast(m.cfg.Addr, protocol.GroupGMPrefix+string(m.cfg.ID), protocol.KindGMHeartbeat, hb)
}

// gmSummaryTick pushes the aggregated group summary to the GL; it doubles as
// the GM's heartbeat to the GL (Section II-B). Beyond the point-in-time
// aggregate, the push carries the merged quantile sketch of the members'
// util series and this GM's scheduling configuration — the distribution and
// policy facts a GL cannot reconstruct from group averages.
func (m *Manager) gmSummaryTick() {
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		return
	}
	gl := m.glAddr
	joined := m.joined
	summary := m.summaryLocked()
	nodes := make([]types.NodeID, 0, len(m.lcs))
	for id := range m.lcs {
		nodes = append(nodes, id)
	}
	m.mu.Unlock()
	if gl == "" {
		return
	}
	if !joined {
		m.gmJoinGL()
	}
	sched := m.schedulingInfo()
	up := protocol.SummaryUpdate{
		Summary:    summary,
		Addr:       string(m.cfg.Addr),
		Rollup:     true,
		Scheduling: &sched,
	}
	if enc, ok := m.mergedUtilSketch(nodes); ok {
		up.UtilSketch = &enc
	}
	_ = m.bus.Send(m.cfg.Addr, gl, protocol.KindSummary, up)
}

// mergedUtilSketch merges the lifetime util sketches of the given member
// nodes into one group-level distribution. The store serializes each series'
// sketch under its own locks, so this runs without m.mu held; it allocates a
// few decode buffers once per summary period, far off any hot path.
func (m *Manager) mergedUtilSketch(nodes []types.NodeID) (sketch.Encoded, bool) {
	store := m.tel.Store()
	merged := sketch.New(store.SketchAlpha())
	for _, id := range nodes {
		enc, ok := store.SeriesSketch(telemetry.NodeEntity(id), "util")
		if !ok {
			continue
		}
		merged.Merge(sketch.Decode(enc))
	}
	if merged.Count() == 0 {
		return sketch.Encoded{}, false
	}
	return merged.Encode(), true
}

// summaryLocked aggregates used/total capacity over the GM's LCs, counting
// sleeping LCs as wakeable capacity.
func (m *Manager) summaryLocked() types.GroupSummary {
	s := types.GroupSummary{GM: m.cfg.ID}
	for _, lc := range m.lcs {
		s.Total = s.Total.Add(lc.status.Spec.Capacity)
		if lc.sleeping {
			s.AsleepLCs++
			continue
		}
		s.ActiveLCs++
		s.Used = s.Used.Add(lc.status.Used)
		s.Reserved = s.Reserved.Add(lc.status.Reserved)
		s.VMs += len(lc.vms)
	}
	return s
}

// gmOnLCJoin admits an LC into this group (Section II-D, final step of the
// LC join protocol).
func (m *Manager) gmOnLCJoin(req *transport.Request) {
	join, ok := req.Payload.(protocol.LCJoinRequest)
	if !ok {
		req.Respond(protocol.LCJoinResponse{})
		return
	}
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		req.Respond(protocol.LCJoinResponse{})
		return
	}
	id := join.Status.Spec.ID
	rec, exists := m.lcs[id]
	if !exists {
		rec = &lcRecord{id: id}
		m.lcs[id] = rec
	}
	rec.addr = transport.Address(join.Addr)
	rec.oob = transport.Address(join.OOB)
	rec.status = join.Status
	rec.vms = join.VMs
	rec.lastSeen = m.rt.Now()
	rec.sleeping = false
	rec.waking = false
	m.bumpViewEpochLocked()
	m.mu.Unlock()
	m.mark("gm.lc-joins", 1)
	m.emit(telemetry.EventLCJoin, telemetry.NodeEntity(id), telemetry.A("gm", string(m.cfg.ID)))
	req.Respond(protocol.LCJoinResponse{Accepted: true})
	// Fresh capacity may satisfy queued placements.
	m.drainPending()
}

// gmOnMonitor ingests an LC monitoring report: store status and refresh the
// demand series used by the schedulers' estimators (Section II-B). Every
// accepted report feeds the telemetry store — per-node series for capacity
// views, all four per-VM demand dimensions for store-backed estimation — and
// the anomaly detector, whose node.overload / node.underload events drive
// relocation. A report that transitions a node into idleness additionally
// publishes node.idle, the signal the event-driven energy manager waits on.
func (m *Manager) gmOnMonitor(req *transport.Request) {
	rep, ok := req.Payload.(protocol.MonitorReport)
	if !ok {
		return
	}
	if !validMonitorReport(rep, m.rt.Now()) {
		// Corrupted input (NaN/Inf/negative usage, future-stamped clock)
		// never reaches the store, the detector or the LC bookkeeping — a
		// single bad sensor must not poison the windowed statistics every
		// scheduling decision consumes.
		m.mark("gm.monitor-rejects", 1)
		return
	}
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		return
	}
	id := rep.Status.Spec.ID
	rec, exists := m.lcs[id]
	if !exists {
		// Unknown LC (e.g. we were promoted and demoted again): admit it
		// implicitly — monitoring proves liveness.
		rec = &lcRecord{id: id}
		m.lcs[id] = rec
		rec.addr = transport.Address(req.From)
		rec.oob = OOBAddress(req.From)
	}
	if rec.sleeping && rep.Status.Generation <= rec.sleepGen {
		// Stale report that was in flight when we ordered the suspend; a
		// genuinely woken node reports a higher generation.
		m.mu.Unlock()
		return
	}
	rec.lastSeen = m.rt.Now()
	if rec.sleeping {
		// A woken node starts a fresh idle episode: un-latch the idle
		// announcement so the energy manager hears about it again.
		rec.idleAnnounced = false
	}
	rec.sleeping = false
	rec.waking = false
	rec.status = rep.Status
	// A VM leaving the report without a terminal vm.state event is the
	// silent-vanish signature (stopped behind the hierarchy's back, lost in
	// a migration race): arm the liveness sweep so its series is reconciled
	// once the grace period proves it gone everywhere.
	if m.cfg.VMLivenessGrace > 0 && vmsRemoved(rec.vms, rep.VMs) {
		m.sweep.armLocked(m.rt.Now() + m.cfg.VMLivenessGrace)
	}
	rec.vms = rep.VMs
	becameIdle := false
	if rep.Status.Idle {
		if !rec.idleAnnounced {
			rec.idleAnnounced = true
			becameIdle = true
		}
	} else {
		rec.idleAnnounced = false
	}
	// One ingested report = one epoch bump: the member series are about to be
	// appended below, so every consumer keyed on the epoch re-reads exactly
	// once per report (the property the epoch test pins down).
	m.bumpViewEpochLocked()
	// Rollup: at most once per heartbeat period, aggregate the group and
	// append the gm/<id> series right here on the monitoring flow — the GL's
	// group views then track capacity at monitoring cadence, without the GL
	// ever touching per-node state (the hierarchy's whole point).
	var rollup types.GroupSummary
	doRollup := false
	if now := m.rt.Now(); m.lastRollup == 0 || now-m.lastRollup >= m.cfg.HeartbeatPeriod {
		m.lastRollup = now
		rollup = m.summaryLocked()
		doRollup = true
	}
	m.mu.Unlock()

	now := m.rt.Now()
	if doRollup {
		m.tel.RecordGroup(now, rollup)
		// Stamp the rollup series like the per-VM series: the claim tells the
		// GL that this GM's monitoring flow feeds gm/<id> directly, so
		// glOnSummary skips its own (coarser) re-record.
		m.tel.Claim(telemetry.GMEntity(m.cfg.ID), string(m.cfg.ID))
		m.mark("gm.rollups", 1)
	}
	m.tel.RecordNode(now, rep.Status)
	for _, vm := range rep.VMs {
		entity := telemetry.VMEntity(vm.Spec.ID)
		m.tel.RecordVM(now, vm)
		// Stamp the series with this GM: the stamp fences other GMs' liveness
		// sweeps away from entities we are feeding.
		m.tel.Claim(entity, string(m.cfg.ID))
	}
	if becameIdle {
		m.emit(telemetry.EventNodeIdle, telemetry.NodeEntity(id),
			telemetry.A("sinceNs", fmt.Sprintf("%d", rep.Status.IdleSince)))
	}
	if ev, fired := m.tel.DetectNode(now, rep.Status); fired {
		m.onTelemetryEvent(ev, rep.Status, rep.VMs)
	}
	m.drainPending()
}

// onTelemetryEvent reacts to a detector event: anomaly events trigger the
// relocation policies, recoveries are journal-only. This is the single entry
// point for relocation — the LC anomaly fast path and the monitoring path
// both funnel through the detector, so an anomaly is acted on at most once
// per Thresholds.Repeat cooldown per node, regardless of how many reports
// carry it. status/vms are the report that fired the event — fresher than
// the GM's cached record when messages reorder.
func (m *Manager) onTelemetryEvent(ev telemetry.Event, status types.NodeStatus, vms []types.VMStatus) {
	var kind protocol.AnomalyKind
	switch ev.Type {
	case telemetry.EventNodeOverload:
		kind = protocol.AnomalyOverload
	case telemetry.EventNodeUnderload:
		kind = protocol.AnomalyUnderload
	default:
		return
	}
	m.mark("gm.detector-relocations", 1)
	m.relocate(kind, status, vms)
}

// estimateVM returns the demand estimate for one VM, reconstructed from the
// telemetry store's retained per-VM series (the single history path — the
// former per-caller resource.History rings are gone). A VM with no retained
// samples yet falls back to its most recent measurement.
func (m *Manager) estimateVM(now time.Duration, vm types.VMStatus) types.ResourceVector {
	if est, ok := m.views.Demand(now, telemetry.VMEntity(vm.Spec.ID), m.cfg.Estimator); ok {
		return est
	}
	return vm.Used
}

// activeStatusesLocked snapshots the schedulable LC statuses.
func (m *Manager) activeStatusesLocked() []types.NodeStatus {
	out := make([]types.NodeStatus, 0, len(m.lcs))
	for _, lc := range m.lcs {
		if lc.sleeping || lc.busy > 0 {
			continue
		}
		out = append(out, lc.status)
	}
	return out
}

// activeViewsLocked builds capacity views over the schedulable LCs — the
// input every placement decision consumes. Builds are memoized on the GM-wide
// view epoch: while nothing moved (no monitor ingestion, reservation,
// migration, sleep/wake or membership change bumped the epoch), a burst of
// placements reuses the previous build outright — zero per-entity cache
// probes, zero store reductions. The heartbeat period bounds the Age drift a
// reused build may carry.
func (m *Manager) activeViewsLocked() []view.Node {
	now := m.rt.Now()
	if nodes, ok := m.viewMemo.Get(m.viewEpoch, now, m.cfg.HeartbeatPeriod); ok {
		return nodes
	}
	nodes := m.views.Nodes(now, m.activeStatusesLocked())
	m.viewMemo.Put(m.viewEpoch, now, nodes)
	return nodes
}

// gmOnPlace serves the GL's placement probe: run the placement policy per VM
// against current LC statuses, issue StartVM commands, and respond with the
// outcome. VMs that fit no active LC wait for a wake when energy management
// is on (Section III: LCs "are woken up by the GM in case ... not enough
// capacity is available").
func (m *Manager) gmOnPlace(req *transport.Request) {
	pr, ok := req.Payload.(protocol.PlaceRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		req.Respond(protocol.PlaceResponse{Unplaced: vmIDs(pr.VMs)})
		return
	}
	m.mu.Unlock()

	resp := protocol.PlaceResponse{Placed: make(map[types.VMID]types.NodeID)}
	remaining := len(pr.VMs)
	if remaining == 0 {
		req.Respond(resp)
		return
	}
	var respMu = make(chan struct{}, 1)
	respMu <- struct{}{}
	finishOne := func(id types.VMID, node types.NodeID, ok bool) {
		<-respMu
		if ok {
			resp.Placed[id] = node
		} else {
			resp.Unplaced = append(resp.Unplaced, id)
		}
		remaining--
		done := remaining == 0
		respMu <- struct{}{}
		if done {
			req.Respond(resp)
		}
	}
	parent := obs.SpanContext{TraceID: pr.TraceID, SpanID: pr.ParentSpan}
	for _, spec := range pr.VMs {
		spec := spec
		m.placeVM(spec, parent, func(node types.NodeID, ok bool) { finishOne(spec.ID, node, ok) })
	}
}

// placeVM runs one VM through the placement policy; cb is invoked exactly
// once with the outcome. parent is the dispatch span that probed this GM
// (invalid when the submission was untraced).
func (m *Manager) placeVM(spec types.VMSpec, parent obs.SpanContext, cb func(node types.NodeID, ok bool)) {
	m.mu.Lock()
	if m.stopped || m.role != RoleGM {
		m.mu.Unlock()
		cb("", false)
		return
	}
	span := m.cfg.Tracer.StartSpan(obs.KindPlacement, telemetry.VMEntity(spec.ID), parent)
	span.SetPolicy(m.cfg.Placement.Name())
	var ex *scheduling.Explain
	if span.Enabled() {
		ex = &scheduling.Explain{}
	}
	nodes := m.activeViewsLocked()
	nodeID, ok := m.cfg.Placement.Place(spec, nodes, ex)
	if span.Enabled() {
		for _, c := range ex.Candidates {
			span.Candidate(c.ID, c.Chosen, c.Reason)
		}
		if ok {
			span.SetTarget(string(nodeID))
			for _, n := range nodes {
				if n.Spec.ID == nodeID {
					span.SetView(n.Stats.Gen, n.Stats.Samples, n.Stats.Fresh, n.Stats.Truncated)
					break
				}
			}
		}
	}
	if !ok {
		// No active LC fits. Queue for a wake if energy management can
		// create capacity, else fail fast.
		if m.cfg.EnergyEnabled && m.sleepingLocked() > 0 {
			m.pending = append(m.pending, pendingPlacement{
				spec:     spec,
				deadline: m.rt.Now() + m.cfg.PendingTimeout,
				respond:  cb,
				trace:    parent,
			})
			m.wakeOneLocked()
			// Arm the retry heartbeat: if the wake call is lost, no journal
			// event will follow to drive the energy check, so the queued
			// placement needs a scheduled check to retry the wake and
			// enforce its deadline (gmEnergyCheck keeps re-arming while the
			// queue is non-empty).
			m.energy.armLocked(m.rt.Now() + m.cfg.IdleThreshold/2)
			m.mu.Unlock()
			m.mark("gm.place-queued", 1)
			span.Finish("queued")
			return
		}
		m.mu.Unlock()
		span.Finish("no-fit")
		cb("", false)
		return
	}
	rec := m.lcs[nodeID]
	// Optimistic reservation so concurrent placements see the load.
	rec.status.Reserved = rec.status.Reserved.Add(spec.Requested)
	rec.status.VMs = append(rec.status.VMs, spec.ID)
	m.bumpViewEpochLocked()
	addr := rec.addr
	m.mu.Unlock()

	sc := span.Context()
	sreq := protocol.StartVMRequest{Spec: spec, TraceID: sc.TraceID, ParentSpan: sc.SpanID}
	m.bus.Call(m.cfg.Addr, addr, protocol.KindStartVM, sreq, m.cfg.CallTimeout,
		func(reply any, err error) {
			ack, isAck := reply.(protocol.StartVMResponse)
			if err != nil || !isAck || !ack.OK {
				// Roll back the optimistic reservation and report failure.
				m.mu.Lock()
				if rec, ok := m.lcs[nodeID]; ok {
					rec.status.Reserved = rec.status.Reserved.Sub(spec.Requested).Max(types.ResourceVector{})
					rec.status.VMs = removeVMID(rec.status.VMs, spec.ID)
					m.bumpViewEpochLocked()
				}
				m.mu.Unlock()
				m.mark("gm.place-failed", 1)
				span.Finish("start-failed")
				cb("", false)
				return
			}
			m.mark("gm.place-ok", 1)
			m.emit(telemetry.EventVMState, telemetry.VMEntity(spec.ID),
				vmStateAttrs(sc, "state", "placed", "node", string(nodeID)))
			span.Finish("placed")
			cb(nodeID, true)
		})
}

func (m *Manager) sleepingLocked() int {
	n := 0
	for _, lc := range m.lcs {
		if lc.sleeping {
			n++
		}
	}
	return n
}

// wakeOneLocked sends an out-of-band wake to one sleeping LC (deterministic
// choice: lowest node ID not already waking).
func (m *Manager) wakeOneLocked() {
	var best *lcRecord
	for _, lc := range m.lcs {
		if lc.sleeping && !lc.waking {
			if best == nil || lc.id < best.id {
				best = lc
			}
		}
	}
	if best == nil {
		return
	}
	best.waking = true
	oob := best.oob
	m.mark("gm.wakes", 1)
	sp := m.cfg.Tracer.StartTrace(obs.KindEnergy, telemetry.NodeEntity(best.id))
	sp.Annotate("action", "wake")
	m.rt.After(0, func() {
		m.bus.Call(m.cfg.Addr, oob, protocol.KindWakeHost, struct{}{}, m.cfg.CallTimeout, func(_ any, err error) {
			if err != nil {
				sp.Finish("failed")
				return
			}
			sp.Finish("ok")
		})
	})
}

// drainPending retries queued placements (after a join, monitor report or
// wake) and expires entries past their deadline.
func (m *Manager) drainPending() {
	m.mu.Lock()
	if len(m.pending) == 0 || m.stopped {
		m.mu.Unlock()
		return
	}
	queue := m.pending
	m.pending = nil
	now := m.rt.Now()
	m.mu.Unlock()

	for _, p := range queue {
		p := p
		if now > p.deadline {
			m.mark("gm.place-expired", 1)
			p.respond("", false)
			continue
		}
		m.mu.Lock()
		span := m.cfg.Tracer.StartSpan(obs.KindPlacement, telemetry.VMEntity(p.spec.ID), p.trace)
		span.SetPolicy(m.cfg.Placement.Name())
		span.Annotate("retry", "pending-queue")
		var ex *scheduling.Explain
		if span.Enabled() {
			ex = &scheduling.Explain{}
		}
		nodes := m.activeViewsLocked()
		nodeID, ok := m.cfg.Placement.Place(p.spec, nodes, ex)
		if span.Enabled() {
			for _, c := range ex.Candidates {
				span.Candidate(c.ID, c.Chosen, c.Reason)
			}
		}
		if !ok {
			// Still no room: requeue.
			m.pending = append(m.pending, p)
			m.mu.Unlock()
			span.Finish("requeued")
			continue
		}
		if span.Enabled() {
			span.SetTarget(string(nodeID))
			for _, n := range nodes {
				if n.Spec.ID == nodeID {
					span.SetView(n.Stats.Gen, n.Stats.Samples, n.Stats.Fresh, n.Stats.Truncated)
					break
				}
			}
		}
		rec := m.lcs[nodeID]
		rec.status.Reserved = rec.status.Reserved.Add(p.spec.Requested)
		rec.status.VMs = append(rec.status.VMs, p.spec.ID)
		m.bumpViewEpochLocked()
		addr := rec.addr
		m.mu.Unlock()
		sc := span.Context()
		sreq := protocol.StartVMRequest{Spec: p.spec, TraceID: sc.TraceID, ParentSpan: sc.SpanID}
		m.bus.Call(m.cfg.Addr, addr, protocol.KindStartVM, sreq, m.cfg.CallTimeout,
			func(reply any, err error) {
				ack, isAck := reply.(protocol.StartVMResponse)
				if err != nil || !isAck || !ack.OK {
					m.mu.Lock()
					if rec, ok := m.lcs[nodeID]; ok {
						rec.status.Reserved = rec.status.Reserved.Sub(p.spec.Requested).Max(types.ResourceVector{})
						rec.status.VMs = removeVMID(rec.status.VMs, p.spec.ID)
						m.bumpViewEpochLocked()
					}
					m.mu.Unlock()
					span.Finish("start-failed")
					p.respond("", false)
					return
				}
				m.emit(telemetry.EventVMState, telemetry.VMEntity(p.spec.ID),
					vmStateAttrs(sc, "state", "placed", "node", string(nodeID)))
				span.Finish("placed")
				p.respond(nodeID, true)
			})
	}
}

// gmOnAnomaly handles an LC overload/underload report. The LC's local
// classification is advisory: the report's fresh status feeds the shared
// telemetry detector, and relocation runs iff the detector (which the
// monitoring path feeds too) confirms a crossing — the GM no longer
// interprets thresholds ad hoc per message (Section II-C).
func (m *Manager) gmOnAnomaly(req *transport.Request) {
	rep, ok := req.Payload.(protocol.AnomalyReport)
	if !ok {
		return
	}
	m.mark("gm.anomalies-received", 1)
	m.mu.Lock()
	_, known := m.lcs[rep.Status.Spec.ID]
	active := m.role == RoleGM && !m.stopped
	m.mu.Unlock()
	if !active || !known {
		return
	}
	if ev, fired := m.tel.DetectNode(m.rt.Now(), rep.Status); fired {
		m.onTelemetryEvent(ev, rep.Status, rep.VMs)
	}
}

// relocate runs the relocation policy for an anomaly on one of this GM's
// nodes and executes the resulting moves (Section II-C). It is invoked by
// onTelemetryEvent, never directly from message handlers; status/vms are
// the reported state that fired the detector.
func (m *Manager) relocate(kind protocol.AnomalyKind, status types.NodeStatus, srcVMs []types.VMStatus) {
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		return
	}
	src, exists := m.lcs[status.Spec.ID]
	if !exists || src.sleeping || src.busy > 0 {
		m.mu.Unlock()
		return
	}
	now := m.rt.Now()
	// Estimate demand for the source VMs from the store's retained series.
	vms := make([]types.VMStatus, len(srcVMs))
	copy(vms, srcVMs)
	for i := range vms {
		vms[i].Used = m.estimateVM(now, vms[i])
	}
	others := make([]types.NodeStatus, 0, len(m.lcs))
	for _, lc := range m.lcs {
		if lc.id == src.id || lc.sleeping || lc.busy > 0 {
			continue
		}
		others = append(others, lc.status)
	}
	var policy = m.cfg.Overload
	if kind == protocol.AnomalyUnderload {
		policy = m.cfg.Underload
	}
	srcView := m.views.Node(now, status)
	// A relocation is trace-root: the detector event, not a user request,
	// started this chain. Its migrations become child spans.
	span := m.cfg.Tracer.StartTrace(obs.KindRelocation, telemetry.NodeEntity(status.Spec.ID))
	span.SetPolicy(policy.Name())
	span.Annotate("anomaly", kind.String())
	span.SetView(srcView.Stats.Gen, srcView.Stats.Samples, srcView.Stats.Fresh, srcView.Stats.Truncated)
	if sk, ok := policy.(scheduling.SkipsAnomaly); ok && sk.SkipAnomaly(srcView) {
		// Deliberate inaction (e.g. trend-relocation judging the spike to be
		// draining on its own) — in particular, do NOT wake sleeping
		// capacity for it.
		m.mark("gm.relocations-skipped", 1)
		m.mu.Unlock()
		span.Finish("skipped")
		return
	}
	var ex *scheduling.Explain
	if span.Enabled() {
		ex = &scheduling.Explain{}
	}
	moves := policy.Relocate(srcView, vms, m.views.Nodes(now, others), ex)
	if span.Enabled() {
		for _, c := range ex.Candidates {
			span.Candidate(c.ID, c.Chosen, c.Reason)
		}
	}
	if len(moves) == 0 {
		// An unresolvable overload wakes sleeping capacity (Section III:
		// "LCs are woken up by the GM in case ... overload situations on
		// the LCs occur").
		if kind == protocol.AnomalyOverload && m.cfg.EnergyEnabled {
			m.wakeOneLocked()
		}
		m.mu.Unlock()
		span.Finish("no-moves")
		return
	}
	m.mark("gm.relocations", int64(len(moves)))
	if kind == protocol.AnomalyOverload {
		m.mark("gm.overload-events", 1)
	} else {
		m.mark("gm.underload-events", 1)
	}
	m.executeMovesLocked(moves, span.Context())
	m.mu.Unlock()
	span.Finish("executing")
}

// executeMovesLocked issues migrations for the given moves, maintaining busy
// markers so schedulers leave the endpoints alone mid-transfer. parent is
// the relocation span the migrations hang off (invalid when untraced).
func (m *Manager) executeMovesLocked(moves []scheduling.Move, parent obs.SpanContext) {
	for _, mv := range moves {
		sp := m.cfg.Tracer.StartSpan(obs.KindMigration, telemetry.VMEntity(mv.VM), parent)
		sp.SetTarget(string(mv.To))
		sp.Annotate("from", string(mv.From))
		m.migrateVMTracedLocked(types.Migration{VM: mv.VM, From: mv.From, To: mv.To}, sp.Context(), func(ok bool) {
			if ok {
				sp.Finish("migrated")
			} else {
				sp.Finish("failed")
			}
		})
	}
}

// migrateVMLocked issues one live migration, maintaining busy markers and the
// optimistic reservation shift; done is invoked exactly once with the
// outcome, never while m.mu is held. It is the single migration primitive —
// relocation and the consolidation optimizer both funnel through it.
func (m *Manager) migrateVMLocked(mv types.Migration, done func(ok bool)) {
	m.migrateVMTracedLocked(mv, obs.SpanContext{}, done)
}

// migrateVMTracedLocked is migrateVMLocked with the issuing decision span's
// context, carried to the LC on the MigrateVMRequest and tagged onto the
// vm.state journal event. Failures are retried with exponential backoff up
// to migrationAttempts; an exhausted budget journals gm.migration-abandoned
// and reports failure once.
func (m *Manager) migrateVMTracedLocked(mv types.Migration, sc obs.SpanContext, done func(ok bool)) {
	m.migrateAttemptLocked(mv, sc, 1, done)
}

// The bounded migration retry shared by relocation and the consolidation
// optimizer — everything funnelling through the migration primitive: one
// migration is attempted at most migrationAttempts times in total, and retry
// attempt n waits migrationBackoff<<(n-2) plus a jitter (migrationDelay).
const (
	migrationAttempts = 3
	migrationBackoff  = 500 * time.Millisecond
)

// migrationDelay computes the backoff before retry attempt next (2, 3, …):
// exponential in migrationBackoff plus a deterministic jitter hashed from the
// VM ID and the attempt number — concurrent retries spread without shared
// random state, so schedules are reproducible in simulation.
func migrationDelay(vm types.VMID, next int) time.Duration {
	d := migrationBackoff << uint(next-2)
	h := fnv.New64a()
	h.Write([]byte(vm))
	h.Write([]byte{byte(next)})
	return d + time.Duration(h.Sum64()%uint64(migrationBackoff))
}

// migrateAttemptLocked issues one attempt of a migration; m.mu must be held.
func (m *Manager) migrateAttemptLocked(mv types.Migration, sc obs.SpanContext, attempt int, done func(ok bool)) {
	src, okS := m.lcs[mv.From]
	dst, okD := m.lcs[mv.To]
	if !okS || !okD {
		m.rt.After(0, func() { done(false) })
		return
	}
	src.busy++
	dst.busy++
	// Reflect the reservation shift optimistically.
	var spec types.VMSpec
	for _, vm := range src.vms {
		if vm.Spec.ID == mv.VM {
			spec = vm.Spec
			break
		}
	}
	dst.status.Reserved = dst.status.Reserved.Add(spec.Requested)
	m.bumpViewEpochLocked()
	mreq := protocol.MigrateVMRequest{VM: mv.VM, DestNode: mv.To, DestAddr: string(dst.addr), TraceID: sc.TraceID, ParentSpan: sc.SpanID}
	srcAddr := src.addr
	from, to := mv.From, mv.To
	m.rt.After(0, func() {
		m.bus.Call(m.cfg.Addr, srcAddr, protocol.KindMigrateVM, mreq, m.cfg.CallTimeout,
			func(reply any, err error) {
				m.mu.Lock()
				if s, ok := m.lcs[from]; ok && s.busy > 0 {
					s.busy--
				}
				if d, ok := m.lcs[to]; ok {
					if d.busy > 0 {
						d.busy--
					}
				}
				m.bumpViewEpochLocked()
				m.mu.Unlock()
				ack, isAck := reply.(protocol.MigrateVMResponse)
				if err != nil || !isAck || !ack.OK {
					m.mark("gm.migrations-failed", 1)
					if attempt < migrationAttempts {
						// Bounded retry: back off and re-issue. The endpoint
						// records are re-resolved under the lock, so an LC
						// that failed or was shed meanwhile aborts the retry.
						m.mark("gm.migration-retries", 1)
						m.rt.After(migrationDelay(mv.VM, attempt+1), func() {
							m.mu.Lock()
							if m.role != RoleGM || m.stopped {
								m.mu.Unlock()
								done(false)
								return
							}
							m.migrateAttemptLocked(mv, sc, attempt+1, done)
							m.mu.Unlock()
						})
						return
					}
					m.mark("gm.migration-abandoned", 1)
					m.emit(telemetry.EventMigrationAbandoned, telemetry.VMEntity(mv.VM),
						vmStateAttrs(sc, "from", string(from), "to", string(to),
							"attempts", strconv.Itoa(attempt)))
					done(false)
					return
				}
				m.mark("gm.migrations-ok", 1)
				m.emit(telemetry.EventVMState, telemetry.VMEntity(mv.VM),
					vmStateAttrs(sc, "state", "migrated", "from", string(from), "to", string(to)))
				done(true)
			})
	})
}

// gmSweepTick detects failed LCs ("GM failures are detected by the GL based
// on missing heartbeats" — symmetrically, LC heartbeats here) and invalidates
// them; optionally their VMs are rescheduled from snapshots (Section II-E).
func (m *Manager) gmSweepTick() {
	m.mu.Lock()
	if m.role != RoleGM || m.stopped {
		m.mu.Unlock()
		return
	}
	now := m.rt.Now()
	var lost []types.VMSpec
	var dead []types.VMID
	var failed []types.NodeID
	for id, lc := range m.lcs {
		if lc.sleeping || lc.waking {
			continue // deliberate sleep: heartbeat silence is expected
		}
		if now-lc.lastSeen > m.cfg.LCTimeout {
			for _, vm := range lc.vms {
				if m.cfg.RescheduleOnLCFailure {
					lost = append(lost, vm.Spec)
				} else {
					dead = append(dead, vm.Spec.ID)
				}
			}
			delete(m.lcs, id)
			failed = append(failed, id)
			m.mark("gm.lc-failures", 1)
		}
	}
	if len(failed) > 0 {
		m.bumpViewEpochLocked()
	}
	m.mu.Unlock()
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	for _, id := range failed {
		entity := telemetry.NodeEntity(id)
		m.emit(telemetry.EventLCFailed, entity, telemetry.A("gm", string(m.cfg.ID)))
		m.tel.ForgetEntity(entity)
	}
	// VMs that died with the node (no rescheduling) get a terminal vm.state;
	// the hub drops their series on that event, so dead VMs do not linger in
	// the store. Rescheduled VMs keep their series — the workload lives on.
	// One journaled batch covers the whole wave: a failed LC can take dozens
	// of VMs with it, and per-event fan-out locking would serialize the sweep.
	if len(dead) > 0 {
		sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
		evs := make([]telemetry.Event, len(dead))
		for i, id := range dead {
			evs[i] = telemetry.Event{At: now, Type: telemetry.EventVMState,
				Entity: telemetry.VMEntity(id), Attrs: telemetry.A("state", "failed")}
		}
		m.tel.EmitBatch(evs)
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].ID < lost[j].ID })
	for _, spec := range lost {
		spec := spec
		m.mark("gm.vm-reschedules", 1)
		m.placeVM(spec, obs.SpanContext{}, func(types.NodeID, bool) {})
	}
}

// deadline is the debounce-then-keep-earliest-deadline machine behind the two
// journal-armed GM loops, the idle check (m.energy) and the VM liveness sweep
// (m.sweep): journal events of the listed types kick it, a burst of kicks
// collapses into one runtime event, and of the instants it is armed for only
// the earliest stays scheduled.
//
// The observer runs synchronously on the publishing goroutine — possibly while
// the publisher holds m.mu — so it touches nothing but the atomic and defers
// the real work to a runtime event. Everything else is guarded by m.mu.
type deadline struct {
	m      *Manager
	events []string // journal event types that kick
	onKick func()   // debounced reaction to a kick; called without m.mu
	fire   func()   // called without m.mu when the armed instant is reached

	kicked atomic.Bool

	unsub  func() // journal observer's cancel hook; nil when not observing
	at     time.Duration
	cancel simkernel.Canceler
}

// observeLocked subscribes to the journal for the GM stint.
func (d *deadline) observeLocked() {
	d.unsub = d.m.tel.Journal().Observe(func(ev telemetry.Event) {
		if !slices.Contains(d.events, ev.Type) || !d.kicked.CompareAndSwap(false, true) {
			return
		}
		d.m.rt.After(0, func() {
			d.kicked.Store(false)
			d.onKick()
		})
	})
}

// armLocked schedules fire at the absolute runtime instant at, unless an
// earlier (or equal) instant is already scheduled.
func (d *deadline) armLocked(at time.Duration) {
	if d.cancel != nil {
		if d.at <= at {
			return
		}
		d.cancel.Cancel()
	}
	d.at = at
	d.cancel = d.m.rt.After(max(0, at-d.m.rt.Now()), func() {
		d.m.mu.Lock()
		d.at, d.cancel = 0, nil
		d.m.mu.Unlock()
		d.fire()
	})
}

// stopLocked detaches the observer and cancels the scheduled instant.
func (d *deadline) stopLocked() {
	if d.unsub != nil {
		d.unsub()
		d.unsub = nil
	}
	if d.cancel != nil {
		d.cancel.Cancel()
		d.cancel = nil
	}
	d.at = 0
}

// gmEnergyCheck suspends LCs that have been idle past the administrator's
// threshold (Section III) and wakes capacity when placements are queued. It
// is event-driven: any journal event that can change idleness (a node
// reporting idle, a recovery, a VM lifecycle outcome, an LC joining) triggers
// it through m.energy, and when it finds idle-but-not-yet-ripe nodes it
// re-arms itself for the exact moment the earliest one ripens — so large idle
// groups cost no periodic tick work at all.
func (m *Manager) gmEnergyCheck() {
	m.mu.Lock()
	if m.role != RoleGM || m.stopped || !m.cfg.EnergyEnabled {
		m.mu.Unlock()
		return
	}
	now := m.rt.Now()
	type target struct {
		addr transport.Address
		id   types.NodeID
	}
	var toSuspend []target
	var nextRipe time.Duration
	for _, lc := range m.lcs {
		if lc.sleeping || lc.waking || lc.busy > 0 || len(lc.status.VMs) > 0 {
			continue
		}
		if lc.status.Power != types.PowerOn || !lc.status.Idle {
			continue
		}
		ripe := time.Duration(lc.status.IdleSince) + m.cfg.IdleThreshold
		if now >= ripe {
			toSuspend = append(toSuspend, target{addr: lc.addr, id: lc.id})
			lc.sleeping = true
			lc.sleepGen = lc.status.Generation
			lc.status.Power = types.PowerSuspended
			continue
		}
		if nextRipe == 0 || ripe < nextRipe {
			nextRipe = ripe
		}
	}
	if len(toSuspend) > 0 {
		m.bumpViewEpochLocked()
	}
	pendingLeft := len(m.pending)
	if pendingLeft > 0 {
		// Queued placements keep a bounded retry heartbeat alive (a wake
		// call may have failed); it stops as soon as the queue drains.
		retry := now + m.cfg.IdleThreshold/2
		if nextRipe == 0 || retry < nextRipe {
			nextRipe = retry
		}
	}
	if nextRipe > 0 {
		m.energy.armLocked(nextRipe)
	}
	m.mu.Unlock()
	sort.Slice(toSuspend, func(i, j int) bool { return toSuspend[i].id < toSuspend[j].id })
	for _, t := range toSuspend {
		m.mark("gm.suspends", 1)
		sp := m.cfg.Tracer.StartTrace(obs.KindEnergy, telemetry.NodeEntity(t.id))
		sp.Annotate("action", "suspend")
		m.bus.Call(m.cfg.Addr, t.addr, protocol.KindSuspendHost, struct{}{}, m.cfg.CallTimeout,
			func(reply any, err error) {
				if err != nil {
					sp.Finish("failed")
					// Suspend refused (e.g. a VM landed meanwhile) or lost:
					// unmark and arm a re-check. Without it a still-idle node
					// would stay powered forever — its continuing idle
					// reports emit no fresh node.idle (the announcement is
					// latched) and nothing else would retry.
					m.mu.Lock()
					if rec, ok := m.lcs[t.id]; ok {
						rec.sleeping = false
						rec.status.Power = types.PowerOn
						m.bumpViewEpochLocked()
					}
					if m.role == RoleGM && !m.stopped {
						m.energy.armLocked(m.rt.Now() + m.cfg.IdleThreshold/2)
					}
					m.mu.Unlock()
					return
				}
				sp.Finish("ok")
			})
	}
	if pendingLeft > 0 {
		m.mu.Lock()
		m.wakeOneLocked()
		m.mu.Unlock()
		m.drainPending()
	}
}

// armVMSweep is m.sweep's reaction to a journal event that can orphan a vm/*
// series — a VM lifecycle outcome, an LC failing or changing hands, a GM
// failing mid-handoff: reconcile one grace period out.
func (m *Manager) armVMSweep() {
	m.mu.Lock()
	if m.role == RoleGM && !m.stopped {
		m.sweep.armLocked(m.rt.Now() + m.cfg.VMLivenessGrace)
	}
	m.mu.Unlock()
}

// gmVMSweep reconciles the hub's vm/* series against this GM's inventory:
// a series belonging to no known VM whose newest sample is older than the
// grace period is declared vanished — a synthetic terminal vm.state event is
// journaled (which also drops the series, see telemetry.TerminalVMStates)
// and the leak is closed. Series stamped with another GM's owner claim
// (Hub.Claim, set by that GM's monitoring flow) are skipped outright — they
// are that GM's to reconcile, until the GL declares it failed and releases
// its stamps (Hub.Release). Remaining unknown-but-fresh
// series (typically a handoff still in flight) re-arm the sweep for the
// exact instant the earliest of them could ripen.
func (m *Manager) gmVMSweep() {
	m.mu.Lock()
	if m.role != RoleGM || m.stopped || m.cfg.VMLivenessGrace <= 0 {
		m.mu.Unlock()
		return
	}
	now := m.rt.Now()
	grace := m.cfg.VMLivenessGrace
	known := make(map[types.VMID]bool)
	for _, lc := range m.lcs {
		// rec.vms covers reported inventory (kept across deliberate
		// suspends); status.VMs additionally covers optimistic in-flight
		// placements whose StartVM has not reported back yet.
		for _, vm := range lc.vms {
			known[vm.Spec.ID] = true
		}
		for _, id := range lc.status.VMs {
			known[id] = true
		}
	}
	for _, p := range m.pending {
		known[p.spec.ID] = true
	}
	m.mu.Unlock()

	var reap []string
	var nextRipe time.Duration
	for entity, newest := range m.tel.Store().EntityNewest(telemetry.EntityVMPrefix) {
		id, ok := telemetry.VMIDFromEntity(entity)
		if !ok || known[id] {
			continue
		}
		// GM fencing: a series stamped with another GM's identity is that
		// GM's to reconcile — skip it outright rather than waiting out its
		// staleness.
		if owner, ok := m.tel.Owner(entity); ok && owner != string(m.cfg.ID) {
			continue
		}
		if ripe := newest + grace; now < ripe {
			if nextRipe == 0 || ripe < nextRipe {
				nextRipe = ripe
			}
			continue
		}
		reap = append(reap, entity)
	}
	sort.Strings(reap)
	if len(reap) > 0 {
		// The terminal state makes the hub forget each entity's series and
		// detector state; the events are the audit trail. A sweep can reap a
		// whole wave at once, so they go through one batched journal append.
		evs := make([]telemetry.Event, len(reap))
		for i, entity := range reap {
			evs[i] = telemetry.Event{At: now, Type: telemetry.EventVMState, Entity: entity,
				Attrs: telemetry.A("state", "vanished", "reason", "liveness-sweep", "gm", string(m.cfg.ID))}
		}
		m.tel.EmitBatch(evs)
		m.mark("gm.vms-vanished", int64(len(reap)))
		m.mark("gm.vm-sweeps", 1)
	}
	if nextRipe > 0 {
		m.mu.Lock()
		if m.role == RoleGM && !m.stopped {
			m.sweep.armLocked(nextRipe)
		}
		m.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

var errBadPayload = fmt.Errorf("hierarchy: bad payload type")

// validMonitorReport rejects corrupted monitoring input before it reaches
// the telemetry store, the anomaly detector or the LC bookkeeping:
// NaN/Inf/negative usage vectors and reports stamped in the future (a
// corrupted or replayed sender clock). AtNs 0 means unstamped and is
// accepted for compatibility with senders that do not stamp.
func validMonitorReport(rep protocol.MonitorReport, now time.Duration) bool {
	if rep.AtNs != 0 && time.Duration(rep.AtNs) > now {
		return false
	}
	for _, c := range rep.Status.Used.Components() {
		if !telemetry.ValidSample(c) {
			return false
		}
	}
	for _, vm := range rep.VMs {
		for _, c := range vm.Used.Components() {
			if !telemetry.ValidSample(c) {
				return false
			}
		}
	}
	return true
}

func vmIDs(specs []types.VMSpec) []types.VMID {
	out := make([]types.VMID, len(specs))
	for i, s := range specs {
		out[i] = s.ID
	}
	return out
}

// vmsRemoved reports whether old contains a VM absent from cur — the silent
// inventory shrink that, without a terminal vm.state event, would leak the
// VM's telemetry series. Per-node VM counts are small; the nested scan is
// cheaper than building sets per report.
func vmsRemoved(old, cur []types.VMStatus) bool {
	for _, o := range old {
		found := false
		for _, c := range cur {
			if c.Spec.ID == o.Spec.ID {
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	return false
}

func removeVMID(ids []types.VMID, id types.VMID) []types.VMID {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// LCCount returns (active, sleeping) LC counts — experiment instrumentation.
func (m *Manager) LCCount() (active, sleeping int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, lc := range m.lcs {
		if lc.sleeping {
			sleeping++
		} else {
			active++
		}
	}
	return
}

// gmOnShed serves the GL's rebalancing request: release up to Count of this
// GM's LCs back into the hierarchy. Quiet LCs (no VMs, not sleeping or
// mid-migration) are preferred; each released LC gets a rejoin command and
// is dropped from this GM's bookkeeping.
func (m *Manager) gmOnShed(req *transport.Request) {
	sr, ok := req.Payload.(protocol.ShedRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	m.mu.Lock()
	if m.role != RoleGM || m.stopped || sr.Count <= 0 {
		m.mu.Unlock()
		req.Respond(protocol.ShedResponse{})
		return
	}
	type cand struct {
		id   types.NodeID
		addr transport.Address
		vms  int
	}
	var cands []cand
	for _, lc := range m.lcs {
		if lc.sleeping || lc.waking || lc.busy > 0 {
			continue
		}
		cands = append(cands, cand{id: lc.id, addr: lc.addr, vms: len(lc.vms)})
	}
	// Fewest VMs first (their monitoring history is cheapest to lose),
	// then by ID for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vms != cands[j].vms {
			return cands[i].vms < cands[j].vms
		}
		return cands[i].id < cands[j].id
	})
	released := 0
	var toNotify []transport.Address
	for _, c := range cands {
		if released >= sr.Count {
			break
		}
		delete(m.lcs, c.id)
		toNotify = append(toNotify, c.addr)
		released++
	}
	if released > 0 {
		m.bumpViewEpochLocked()
	}
	m.mu.Unlock()
	for _, addr := range toNotify {
		m.bus.Call(m.cfg.Addr, addr, protocol.KindRejoin, struct{}{}, m.cfg.CallTimeout, func(any, error) {})
	}
	m.mark("gm.lcs-shed", int64(released))
	req.Respond(protocol.ShedResponse{Released: released})
}

// gmOnLCList serves the deep-topology export: this GM's LC inventory.
func (m *Manager) gmOnLCList(req *transport.Request) {
	m.mu.Lock()
	resp := protocol.LCListResponse{LCs: make([]protocol.TopologyLC, 0, len(m.lcs))}
	for _, lc := range m.lcs {
		resp.LCs = append(resp.LCs, protocol.TopologyLC{
			ID:       lc.id,
			Power:    lc.status.Power.String(),
			VMs:      len(lc.status.VMs),
			Reserved: lc.status.Reserved,
			Capacity: lc.status.Spec.Capacity,
		})
	}
	m.mu.Unlock()
	slices.SortFunc(resp.LCs, func(a, b protocol.TopologyLC) int { return strings.Compare(string(a.ID), string(b.ID)) })
	req.Respond(resp)
}

// gmOnInventory serves the api/v1 control-plane reads: the monitored status
// of the managed LCs plus the VMs they host, with the hosting node filled in,
// both ordered by ID. Each LC carries the age of its last monitor report so
// aggregators can discard a stale claim when another GM reports the same LC
// more freshly. An InventoryRequest narrows the reply (and the copying done
// under the manager lock) to one VM and its hosts, or to the nodes alone; any
// other payload — a sender that predates the request type — gets everything.
func (m *Manager) gmOnInventory(req *transport.Request) {
	want, _ := req.Payload.(protocol.InventoryRequest)
	byID := want.VM != ""
	withVMs := byID || !want.NodesOnly
	m.mu.Lock()
	now := m.rt.Now()
	var resp protocol.InventoryResponse
	if !byID { // sized once; Grow leaves an empty list nil, as appending to it did
		resp.Nodes = slices.Grow(resp.Nodes, len(m.lcs))
		if withVMs {
			n := 0
			for _, lc := range m.lcs {
				n += len(lc.vms)
			}
			resp.VMs = slices.Grow(resp.VMs, n)
		}
	}
	for _, lc := range m.lcs {
		listed := !byID // a by-ID reply lists only the nodes hosting the VM
		if withVMs {
			for _, vm := range lc.vms {
				if !byID || vm.Spec.ID == want.VM {
					vm.Node = lc.id
					resp.VMs = append(resp.VMs, vm)
					listed = true
				}
			}
		}
		if listed {
			resp.Nodes = append(resp.Nodes, protocol.InventoryNode{
				Status: lc.status,
				AgeNs:  int64(now - lc.lastSeen),
			})
		}
	}
	m.mu.Unlock()
	resp.Scheduling = m.schedulingInfo()
	slices.SortFunc(resp.Nodes, func(a, b protocol.InventoryNode) int {
		return strings.Compare(string(a.Status.Spec.ID), string(b.Status.Spec.ID))
	})
	slices.SortFunc(resp.VMs, func(a, b types.VMStatus) int { return strings.Compare(string(a.Spec.ID), string(b.Spec.ID)) })
	req.Respond(resp)
}

// LCBusy exposes the per-LC in-flight migration counters (experiment and
// test instrumentation).
func (m *Manager) LCBusy() map[types.NodeID]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[types.NodeID]int, len(m.lcs))
	for id, lc := range m.lcs {
		if lc.busy != 0 {
			out[id] = lc.busy
		}
	}
	return out
}
