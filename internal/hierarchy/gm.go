package hierarchy

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"snooze/internal/consolidation/online"
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
//
// The GM acts where its own state changes: an idle report kicks the energy
// check, and the optimizer skips a round whose snapshot it already solved.

// gmStint is one stint of the Group Manager role: from the election naming
// another manager leader to this manager's promotion, crash or stop. It holds
// the group's state — the LCs, the VM ledger and its pending queue, the shed
// tombstones — and the role's periodic work: its tickers, the energy check
// its own idle reports kick and the consolidation optimizer. A
// leader change stays inside the stint (follow); close is its exit hand-off.
// The manager's mu guards all of it. Callbacks capture their stint, and lock
// makes a late one from an earlier stint a no-op.
type gmStint struct {
	*Manager
	glAddr transport.Address
	joined bool
	lcs    map[types.NodeID]*lcRecord
	// shedLCs holds each LC this GM shed until LCTimeout after, or until the
	// LC joins it again: a report the LC sent before it learnt of the shed
	// does not readmit it.
	shedLCs map[types.NodeID]time.Duration
	// ledger is the one record of the group's VMs (vmEntry), written by
	// setLocked only.
	ledger  map[types.VMID]*vmEntry
	waiting int    // pending entries in the ledger
	seq     uint64 // stamps reports and orders the pending queue
	// energy is the idle check, kicked by idle reports and armed for the
	// moment the earliest idle node ripens.
	energy deadline
	// optimizer is the online consolidation service, created lazily. It never
	// holds its own lock while calling back into the stint, so m.mu →
	// optimizer-lock is the only ordering.
	optimizer *online.Optimizer
	// lastRollup is the virtual time of the last GM rollup append; 0 means
	// none yet since the stint last followed a leader.
	lastRollup time.Duration
	tickers    tickers
}

// newGMStint opens an empty GM stint; m.mu is held. Owner stamps the
// manager's ID still holds come from an earlier stint, whose ledger is gone:
// they are released, and the VMs no report claims again are reaped.
func (m *Manager) newGMStint() *gmStint {
	g := &gmStint{
		Manager: m,
		lcs:     make(map[types.NodeID]*lcRecord),
		shedLCs: make(map[types.NodeID]time.Duration),
		ledger:  make(map[types.VMID]*vmEntry),
	}
	g.energy = deadline{m: m, fire: g.energyCheck}
	m.reapUnfedLater(m.tel.Release(string(m.cfg.ID)))
	return g
}

// follow points the stint at the GL gl, on entry and on every leader change:
// the stint joins the GL, its next report rolls up at once, and its periodic
// work restarts. The LCs and the ledger stay.
func (g *gmStint) follow(gl transport.Address) {
	if g.glAddr != gl {
		g.mark("gm.gl-changes", 1)
	}
	g.glAddr, g.joined, g.lastRollup = gl, false, 0
	g.stopLocked()
	g.tickers.add(g.rt, g.cfg.HeartbeatPeriod, g.heartbeatTick)
	g.tickers.add(g.rt, g.cfg.SummaryPeriod, g.summaryTick)
	g.tickers.add(g.rt, g.cfg.LCTimeout/3, g.sweepTick)
	if g.cfg.EnergyEnabled {
		// Idle detection is event-driven: each idle report or idle joiner
		// kicks the check, and each check re-arms itself at the exact moment
		// the earliest idle node ripens. One bootstrap check covers the LCs
		// the stint already has.
		g.energy.armLocked(g.rt.Now() + g.cfg.IdleThreshold)
	}
	if g.cfg.Consolidation.Enabled {
		g.optimizerLocked().Start()
	}
	// Join the GL immediately (heartbeat-paced retries cover failures).
	g.rt.After(0, g.joinGL)
}

// close ends the stint: pending placements are answered unplaced and the
// ledger empties. A manager that runs on (a promotion) no longer feeds the
// series of the VMs it had running, so it reaps those no other GM reports
// again. The stint's periodic work stops.
func (g *gmStint) close() {
	for _, e := range g.pendingLocked() {
		g.answerLaterLocked(e, "", false)
	}
	var fed []string
	for _, e := range g.ledger {
		if !g.stopped && (e.state == vmRunning || e.state == vmMigrating) {
			fed = append(fed, telemetry.VMEntity(e.vm.Spec.ID))
		}
		g.setLocked(e, vmPhase{})
	}
	g.reapUnfedLater(fed)
	g.stopLocked()
}

// stopLocked halts the stint's periodic work, the armed energy check and the
// optimizer included.
func (g *gmStint) stopLocked() {
	g.tickers.stop()
	g.energy.stopLocked()
	if g.optimizer != nil {
		g.optimizer.Stop()
	}
}

// lock takes m.mu if g is still the manager's GM stint, and reports if it did.
func (g *gmStint) lock() bool {
	g.mu.Lock()
	if g.gm != g {
		g.mu.Unlock()
		return false
	}
	return true
}

// joinGL enrolls this GM with the current GL.
func (g *gmStint) joinGL() {
	if !g.lock() {
		return
	}
	gl := g.glAddr
	g.mu.Unlock()
	if gl == "" {
		return
	}
	req := protocol.GMJoinRequest{GM: g.cfg.ID, Addr: string(g.cfg.Addr)}
	g.bus.Call(g.cfg.Addr, gl, protocol.KindGMJoin, req, g.cfg.CallTimeout, func(reply any, err error) {
		if err != nil {
			return // summary ticks retry enrollment implicitly
		}
		if ack, ok := reply.(protocol.GMJoinResponse); ok && ack.Accepted {
			g.mu.Lock()
			g.joined = true
			g.mu.Unlock()
			g.mark("gm.joins", 1)
		}
	})
}

// heartbeatTick multicasts the GM heartbeat to this GM's LC group.
func (g *gmStint) heartbeatTick() {
	if !g.lock() {
		return
	}
	g.mu.Unlock()
	hb := protocol.GMHeartbeat{GM: g.cfg.ID, Addr: string(g.cfg.Addr)}
	g.bus.Multicast(g.cfg.Addr, protocol.GroupGMPrefix+string(g.cfg.ID), protocol.KindGMHeartbeat, hb)
}

// summaryTick pushes the aggregated group summary to the GL; it doubles as
// the GM's heartbeat to the GL (Section II-B). Beyond the point-in-time
// aggregate, the push carries the merged quantile sketch of the members'
// util series and this GM's scheduling configuration — the distribution and
// policy facts a GL cannot reconstruct from group averages.
func (g *gmStint) summaryTick() {
	if !g.lock() {
		return
	}
	gl := g.glAddr
	joined := g.joined
	summary := g.summaryLocked()
	nodes := make([]types.NodeID, 0, len(g.lcs))
	for id := range g.lcs {
		nodes = append(nodes, id)
	}
	g.mu.Unlock()
	if gl == "" {
		return
	}
	if !joined {
		g.joinGL()
	}
	sched := g.schedulingInfo()
	up := protocol.SummaryUpdate{
		Summary:    summary,
		Addr:       string(g.cfg.Addr),
		Scheduling: &sched,
	}
	if enc, ok := g.mergedUtilSketch(nodes); ok {
		up.UtilSketch = &enc
	}
	_ = g.bus.Send(g.cfg.Addr, gl, protocol.KindSummary, up)
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
func (g *gmStint) summaryLocked() types.GroupSummary {
	s := types.GroupSummary{GM: g.cfg.ID}
	for _, lc := range g.lcs {
		s.Total = s.Total.Add(lc.status.Spec.Capacity)
		if lc.sleeping {
			s.AsleepLCs++
			continue
		}
		s.ActiveLCs++
		s.Used = s.Used.Add(lc.status.Used)
		s.Reserved = s.Reserved.Add(lc.status.Reserved)
		s.VMs += len(lc.hosted)
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
	g := m.lockGM()
	if g == nil {
		req.Respond(protocol.LCJoinResponse{})
		return
	}
	id := join.Status.Spec.ID
	delete(g.shedLCs, id)
	rec, exists := g.lcs[id]
	if !exists {
		rec = &lcRecord{id: id}
		g.lcs[id] = rec
	}
	rec.addr = transport.Address(join.Addr)
	rec.oob = transport.Address(join.OOB)
	rec.status = join.Status
	left := g.reconcileLocked(rec, join.VMs)
	rec.lastSeen = m.rt.Now()
	rec.sleeping = false
	rec.waking = false
	m.mu.Unlock()
	m.reclaimLeft(m.rt.Now(), left)
	m.mark("gm.lc-joins", 1)
	m.emit(telemetry.EventLCJoin, telemetry.NodeEntity(id), telemetry.A("gm", string(m.cfg.ID)))
	if join.Status.Idle && m.cfg.EnergyEnabled {
		g.energy.kick()
	}
	req.Respond(protocol.LCJoinResponse{Accepted: true})
	// Fresh capacity may satisfy queued placements.
	g.drainPending()
}

// gmOnMonitor ingests an LC monitoring report: store status and refresh the
// demand series used by the schedulers' estimators (Section II-B). Every
// accepted report feeds the telemetry store — per-node series for capacity
// views, all four per-VM demand dimensions for store-backed estimation — and
// the anomaly detector, whose node.overload / node.underload events drive
// relocation. A report of an idle node kicks the energy check; the one that
// transitions it into idleness additionally publishes node.idle.
// The report's VM list reconciles with the ledger (reconcileLocked): a VM the
// report omits that the ledger has running on the LC has left it, and its
// series end here (reclaimLeft).
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
	g := m.lockGM()
	if g == nil {
		return
	}
	id := rep.Status.Spec.ID
	rec, exists := g.lcs[id]
	if !exists {
		if until, shed := g.shedLCs[id]; shed && m.rt.Now() < until {
			// Sent before the LC learnt it was shed: it is on its way to
			// another GM, and admitting it would count it twice.
			m.mu.Unlock()
			return
		}
		// Unknown LC (e.g. it joined an earlier stint of this manager):
		// admit it implicitly — monitoring proves liveness.
		rec = &lcRecord{id: id}
		g.lcs[id] = rec
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
	left := g.reconcileLocked(rec, rep.VMs)
	becameIdle := false
	if rep.Status.Idle {
		if !rec.idleAnnounced {
			rec.idleAnnounced = true
			becameIdle = true
		}
	} else {
		rec.idleAnnounced = false
	}
	// Rollup: at most once per heartbeat period, aggregate the group and
	// append the gm/<id> series right here on the monitoring flow — the GL's
	// group views then track capacity at monitoring cadence, without the GL
	// ever touching per-node state (the hierarchy's whole point).
	var rollup types.GroupSummary
	doRollup := false
	if now := m.rt.Now(); g.lastRollup == 0 || now-g.lastRollup >= m.cfg.HeartbeatPeriod {
		g.lastRollup = now
		rollup = g.summaryLocked()
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
	// The report stamps the VM series with this GM: the stamp keeps other
	// GMs' reclaimLeft away from entities we are feeding.
	m.tel.RecordReport(now, rep.Status, rep.VMs, string(m.cfg.ID))
	m.reclaimLeft(now, left)
	if rep.Status.Idle && m.cfg.EnergyEnabled {
		// Every idle report kicks the energy check, not only the first: a
		// start that failed on an idle node rolled its reservation back
		// without an event, and the next report re-checks that node.
		g.energy.kick()
	}
	if becameIdle {
		m.emit(telemetry.EventNodeIdle, telemetry.NodeEntity(id),
			telemetry.A("sinceNs", fmt.Sprintf("%d", rep.Status.IdleSince)))
	}
	// The detector is the one overload/underload classifier: an anomaly is
	// acted on at most once per Thresholds.Repeat per node, and recoveries
	// are journal-only. The report that fired it is fresher than the GM's
	// cached record when messages reorder.
	if ev, fired := m.tel.DetectNode(now, rep.Status); fired && ev.Type != telemetry.EventNodeNormal {
		g.mark("gm.detector-relocations", 1)
		g.relocate(ev.Type == telemetry.EventNodeOverload, rep.Status, rep.VMs)
	}
	g.drainPending()
}

// setLocked moves e into phase p (out of the ledger for vmGone): the one
// writer of m.ledger and of what is derived from it, the LCs' hosted lists
// and busy counts and m.waiting. m.mu must be held.
func (g *gmStint) setLocked(e *vmEntry, p vmPhase) {
	e.tally(&g.waiting, -1)
	if n := e.node; n != p.node && n != nil {
		last := n.hosted[len(n.hosted)-1]
		n.hosted[e.slot], last.slot = last, e.slot
		n.hosted[len(n.hosted)-1] = nil // the array must not keep a departed entry alive
		n.hosted = n.hosted[:len(n.hosted)-1]
	}
	if n := p.node; n != e.node && n != nil {
		e.slot, n.hosted = len(n.hosted), append(n.hosted, e)
	}
	e.vmPhase = p
	p.tally(&g.waiting, 1)
	if p.state == vmGone {
		delete(g.ledger, e.vm.Spec.ID)
	} else {
		g.ledger[e.vm.Spec.ID] = e
	}
}

// reconcileLocked applies the VM list of a report (or join) of rec and
// returns, in ID order, the VMs that left rec and have series. A listed VM
// becomes or stays running on rec, adopted if unknown; a migration's stale
// source report and a destination's report of a transfer not yet acked
// change nothing. A VM running on rec that the report omits leaves, unless
// it was migrated there and has grace; a started VM no report listed yet
// leaves silently, and a later report that lists it adopts it again.
func (g *gmStint) reconcileLocked(rec *lcRecord, vms []types.VMStatus) []types.VMID {
	g.seq++
	for _, v := range vms {
		e := g.ledger[v.Spec.ID]
		if e == nil {
			e = &vmEntry{vm: v} // adopted below
		}
		e.seen = g.seq
		switch {
		case e.from == rec, e.state == vmMigrating && e.dst == rec:
			continue
		case e.node != rec || e.state != vmRunning && e.state != vmMigrating:
			if e.state == vmPending {
				g.answerLaterLocked(e, rec.id, true)
			}
			g.setLocked(e, vmPhase{state: vmRunning, node: rec})
		}
		e.vm, e.grace = v, false
	}
	var left []types.VMID
	for i := len(rec.hosted) - 1; i >= 0; i-- { // dropping entry i refills slot i from a visited one
		switch e := rec.hosted[i]; {
		case e.seen == g.seq, e.state != vmRunning:
		case e.grace:
			e.grace = false
		default:
			if e.seen != 0 { // a VM no report listed has no series to end
				left = append(left, e.vm.Spec.ID)
			}
			g.setLocked(e, vmPhase{})
		}
	}
	slices.Sort(left)
	return left
}

// dropLCLocked removes rec from the group. The entries of the VMs it hosts
// leave the ledger and are returned; those starting on it leave too, their
// StartVM outcome still answers them. Migrations into rec fall back to
// their source.
func (g *gmStint) dropLCLocked(rec *lcRecord) []*vmEntry {
	delete(g.lcs, rec.id)
	var hosted []*vmEntry
	for _, e := range g.ledger {
		switch {
		case e.node == rec:
			if e.state != vmStarting {
				hosted = append(hosted, e)
			}
			g.setLocked(e, vmPhase{})
		case e.dst == rec:
			g.setLocked(e, vmPhase{state: vmRunning, node: e.node, from: e.from})
		}
	}
	return hosted
}

// pendingLocked returns the pending entries in queue order.
func (g *gmStint) pendingLocked() []*vmEntry {
	out := make([]*vmEntry, 0, g.waiting)
	for _, e := range g.ledger {
		if e.state == vmPending {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *vmEntry) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// answerLaterLocked answers e's waiters from a runtime event.
func (g *gmStint) answerLaterLocked(e *vmEntry, node types.NodeID, ok bool) {
	w, id := e.waiters, e.vm.Spec.ID
	e.waiters = waiters{}
	g.rt.After(0, func() { w.answer(id, node, ok) })
}

// reclaimLeft ends the series of VMs that left their LC's report: one
// batched vm.state "vanished" event with reason "left-report", on which the
// hub drops each VM's series, detector state and owner stamp. A VM whose
// series carry another GM's owner stamp is that GM's to reconcile and is left
// alone. Called without m.mu.
func (m *Manager) reclaimLeft(now time.Duration, left []types.VMID) {
	if len(left) == 0 {
		return
	}
	evs := make([]telemetry.Event, 0, len(left))
	for _, id := range left {
		entity := telemetry.VMEntity(id)
		if owner, ok := m.tel.Owner(entity); ok && owner != string(m.cfg.ID) {
			continue
		}
		evs = append(evs, telemetry.Event{At: now, Type: telemetry.EventVMState, Entity: entity,
			Attrs: telemetry.A("state", "vanished", "reason", "left-report", "gm", string(m.cfg.ID))})
	}
	m.tel.EmitBatch(evs)
	m.mark("gm.vms-left", int64(len(evs)))
}

// reapUnfedLater ends the series of VMs whose feeding report was just lost
// and that no report feeds again: after 4 × LCTimeout, each listed vm/*
// entity that still has series but no sample newer than now gets one batched
// vm.state "vanished" event with reason "unfed", on which the hub drops it. A
// VM that runs on is reported by whichever GM its LC joins, so its series
// stay. The hierarchy calls it where a VM loses its feeder: the GL declaring
// a GM failed, a GM shedding LCs, a GM re-placing a failed LC's VMs, a GM
// stint ending while the manager runs on, and a new GM stint releasing the
// stamps of an earlier one. m.mu may be held: it only schedules.
func (m *Manager) reapUnfedLater(entities []string) {
	if len(entities) == 0 {
		return
	}
	slices.Sort(entities)
	since := m.rt.Now()
	m.rt.After(4*m.cfg.LCTimeout, func() {
		m.mu.Lock()
		stopped := m.stopped
		m.mu.Unlock()
		if stopped {
			return
		}
		now, store := m.rt.Now(), m.tel.Store()
		var evs []telemetry.Event
		for _, entity := range entities {
			if sm, ok := store.Newest(entity, "cpu.used"); ok && sm.At <= since {
				evs = append(evs, telemetry.Event{At: now, Type: telemetry.EventVMState, Entity: entity,
					Attrs: telemetry.A("state", "vanished", "reason", "unfed", "gm", string(m.cfg.ID))})
			}
		}
		m.tel.EmitBatch(evs)
		m.mark("gm.vms-vanished", int64(len(evs)))
	})
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

// activeViewsLocked builds capacity views over the schedulable LCs (awake,
// in no migration) in ID order, the order placement policies iterate in —
// the input every placement decision consumes. Each call builds a fresh
// slice; the view cache makes a build in a quiet window cost no store
// reductions.
func (g *gmStint) activeViewsLocked() []view.Node {
	active := make([]types.NodeStatus, 0, len(g.lcs))
	for _, lc := range g.lcs {
		if !lc.sleeping && lc.busy == 0 {
			active = append(active, lc.status)
		}
	}
	slices.SortFunc(active, func(a, b types.NodeStatus) int { return cmp.Compare(a.Spec.ID, b.Spec.ID) })
	return g.views.Nodes(g.rt.Now(), active)
}

// placement is one VM of a placement batch, from the decision under m.mu to
// its outcome: the decision span and the chosen LC, or why it has none.
type placement struct {
	e       *vmEntry
	spec    types.VMSpec // e's, copied under m.mu
	span    obs.Span
	rec     *lcRecord
	addr    transport.Address
	outcome string // span outcome of a VM not started: no-fit, queued, requeued or expired
}

// gmOnPlace serves the GL's placement probe: place the request's VMs as one
// batch, issue the StartVM commands, and respond once every VM has an
// outcome. VMs that fit no active LC wait for a wake when energy management
// is on (Section III: LCs "are woken up by the GM in case ... not enough
// capacity is available"). Placement is idempotent by VM ID: a VM with a
// ledger entry is not placed again, the request joins the entry's outcome.
// It waits with the first request while the VM is pending or starting, and
// is answered "placed" on the VM's node at once while it runs or migrates.
func (m *Manager) gmOnPlace(req *transport.Request) {
	pr, ok := req.Payload.(protocol.PlaceRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	r := &placeReply{req: req, remaining: len(pr.VMs), trace: obs.SpanContext{TraceID: pr.TraceID, SpanID: pr.ParentSpan},
		resp: protocol.PlaceResponse{Placed: make(map[types.VMID]types.NodeID, len(pr.VMs))}}
	g := m.lockGM()
	if g == nil {
		req.Respond(protocol.PlaceResponse{Unplaced: vmIDs(pr.VMs)})
		return
	}
	batch := make([]placement, 0, len(pr.VMs))
	for _, spec := range pr.VMs {
		switch e := g.ledger[spec.ID]; {
		case e == nil:
			e = &vmEntry{vm: types.VMStatus{Spec: spec}, waiters: waiters{first: r}}
			batch = append(batch, placement{e: e, spec: spec})
		case e.state == vmPending, e.state == vmStarting:
			e.waiters.more = append(e.waiters.more, r)
		default: // running or migrating
			id, node := spec.ID, e.node.id
			m.rt.After(0, func() { r.answer(id, node, true) })
		}
	}
	g.placeLocked(batch, false)
	m.mu.Unlock()
	if joined := len(pr.VMs) - len(batch); joined > 0 {
		m.mark("gm.place-joins", int64(joined))
	}
	g.finishPlacements(batch)
	if len(pr.VMs) == 0 {
		req.Respond(r.resp)
	}
}

// placeLocked runs a batch of VMs through the placement policy against one
// build of the active views. Each placement charges the VM's reservation to
// the chosen node, on its LC record and in the batch's build, so the
// next VM of the batch sees what a rebuild would show: Stats are keyed by
// series generation, and a reservation appends no sample. This is the
// charge-the-snapshot rule the GL's dispatch applies to group views. A placed
// VM is starting on its LC; one that fits no active LC goes to noFitLocked;
// with retry (the pending queue itself) a VM past its deadline expires first.
// Nothing is sent or answered here: finishPlacements does that once m.mu is
// released.
func (g *gmStint) placeLocked(batch []placement, retry bool) {
	now := g.rt.Now()
	nodes := g.activeViewsLocked()
	// One evidence buffer serves the batch: Span.Candidate copies what it
	// keeps, so the next VM may overwrite the entries.
	var ex *scheduling.Explain
	for i := range batch {
		p := &batch[i]
		if retry && now > p.e.deadline {
			p.outcome = "expired"
			g.setLocked(p.e, vmPhase{})
			continue
		}
		var parent obs.SpanContext // the dispatch span of the request that placed the VM first
		if r := p.e.waiters.first; r != nil {
			parent = r.trace
		}
		p.span = g.cfg.Tracer.StartSpan(obs.KindPlacement, telemetry.VMEntity(p.spec.ID), parent)
		p.span.SetPolicy(g.cfg.Placement.Name())
		if retry {
			p.span.Annotate("retry", "pending-queue")
		}
		var pex *scheduling.Explain // nil when the span records nothing
		if p.span.Enabled() {
			if ex == nil {
				ex = &scheduling.Explain{}
			}
			ex.Candidates = ex.Candidates[:0]
			pex = ex
		}
		id, ok := g.cfg.Placement.Place(p.spec, nodes, pex)
		if pex != nil {
			for _, c := range pex.Candidates {
				p.span.Candidate(c.ID, c.Chosen, c.Reason)
			}
		}
		if !ok {
			p.outcome = g.noFitLocked(p.e, retry, now)
			continue
		}
		k, _ := slices.BinarySearchFunc(nodes, id, func(n view.Node, id types.NodeID) int { return cmp.Compare(n.Spec.ID, id) })
		if p.span.Enabled() {
			st := nodes[k].Stats
			p.span.SetTarget(string(id))
			p.span.SetView(st.Gen, st.Samples, st.Fresh, st.Truncated)
		}
		rec := g.lcs[id]
		// Optimistic reservation so concurrent placements see the load.
		rec.status.Reserved = rec.status.Reserved.Add(p.spec.Requested)
		g.setLocked(p.e, vmPhase{state: vmStarting, node: rec})
		nodes[k].NodeStatus = rec.status // charge the build for the VMs still to place
		p.rec, p.addr = rec, rec.addr
	}
}

// noFitLocked disposes of a VM that fits no active LC and returns its span
// outcome. A pending retry stays in the queue. A fresh VM waits for a wake
// when energy management can create capacity, and fails otherwise.
func (g *gmStint) noFitLocked(e *vmEntry, retry bool, now time.Duration) string {
	if retry {
		return "requeued"
	}
	if !g.cfg.EnergyEnabled || !g.wakeOneLocked() {
		return "no-fit"
	}
	g.seq++
	e.deadline, e.seq = now+g.cfg.PendingTimeout, g.seq
	g.setLocked(e, vmPhase{state: vmPending})
	// Arm the retry heartbeat: if the wake call is lost, no report of the
	// woken node will kick the energy check, which retries the wake, enforces
	// the deadline and keeps re-arming while the queue is non-empty.
	g.energy.armLocked(now + g.cfg.IdleThreshold/2)
	return "queued"
}

// finishPlacements carries out a placed batch, in VM order and without
// m.mu: a StartVM command for each VM placeLocked reserved a node for, the
// outcome of each VM it did not start (out of the ledger: no more joins).
func (g *gmStint) finishPlacements(batch []placement) {
	for i := range batch {
		p := &batch[i]
		switch p.outcome {
		case "":
			g.startVM(p)
			continue
		case "expired":
			g.mark("gm.place-expired", 1)
		case "queued":
			g.mark("gm.place-queued", 1)
		}
		p.span.Finish(p.outcome) // a no-op on an expired VM's zero span
		if p.outcome == "expired" || p.outcome == "no-fit" {
			p.e.waiters.answer(p.spec.ID, "", false)
		}
	}
}

// startVM commands the chosen LC to boot a placed VM. If the VM is still
// starting there, success makes it running, and failure rolls back the
// reservation and drops the entry. The span and the waiters see the outcome.
func (g *gmStint) startVM(p *placement) {
	sc := p.span.Context()
	sreq := protocol.StartVMRequest{Spec: p.spec, TraceID: sc.TraceID, ParentSpan: sc.SpanID}
	g.bus.Call(g.cfg.Addr, p.addr, protocol.KindStartVM, sreq, g.cfg.CallTimeout, func(reply any, err error) {
		ack, isAck := reply.(protocol.StartVMResponse)
		ok := err == nil && isAck && ack.OK
		g.mu.Lock()
		if e := p.e; g.ledger[p.spec.ID] == e && e.state == vmStarting && e.node == p.rec {
			if ok {
				g.setLocked(e, vmPhase{state: vmRunning, node: p.rec})
			} else {
				p.rec.status.Reserved = p.rec.status.Reserved.Sub(p.spec.Requested).Max(types.ResourceVector{})
				g.setLocked(e, vmPhase{})
			}
		}
		w := p.e.waiters
		p.e.waiters = waiters{}
		g.mu.Unlock()
		if !ok {
			g.mark("gm.place-failed", 1)
			p.span.Finish("start-failed")
			w.answer(p.spec.ID, "", false)
			return
		}
		g.mark("gm.place-ok", 1)
		g.emit(telemetry.EventVMState, telemetry.VMEntity(p.spec.ID),
			vmStateAttrs(sc, "state", "placed", "node", string(p.rec.id)))
		p.span.Finish("placed")
		w.answer(p.spec.ID, p.rec.id, true)
	})
}

// wakeOneLocked sends an out-of-band wake to one sleeping LC (deterministic
// choice: lowest node ID not already waking); asleep reports whether any is.
func (g *gmStint) wakeOneLocked() (asleep bool) {
	var best *lcRecord
	for _, lc := range g.lcs {
		asleep = asleep || lc.sleeping
		if lc.sleeping && !lc.waking {
			if best == nil || lc.id < best.id {
				best = lc
			}
		}
	}
	if best == nil {
		return asleep
	}
	best.waking = true
	oob := best.oob
	g.mark("gm.wakes", 1)
	sp := g.cfg.Tracer.StartTrace(obs.KindEnergy, telemetry.NodeEntity(best.id))
	sp.Annotate("action", "wake")
	g.rt.After(0, func() {
		g.bus.Call(g.cfg.Addr, oob, protocol.KindWakeHost, struct{}{}, g.cfg.CallTimeout, func(_ any, err error) {
			if err != nil {
				sp.Finish("failed")
				return
			}
			sp.Finish("ok")
		})
	})
	return true
}

// drainPending retries the queued placements (after a join, monitor report
// or wake) as one batch, expiring entries past their deadline.
func (g *gmStint) drainPending() {
	if !g.lock() {
		return
	}
	if g.waiting == 0 {
		g.mu.Unlock()
		return
	}
	pending := g.pendingLocked()
	batch := make([]placement, len(pending))
	for i, e := range pending {
		batch[i] = placement{e: e, spec: e.vm.Spec}
	}
	g.placeLocked(batch, true)
	g.mu.Unlock()
	g.finishPlacements(batch)
}

// relocate runs the overload (or else underload) relocation policy for an
// anomaly on one of this GM's nodes and executes the resulting moves
// (Section II-C). Only gmOnMonitor calls it, on a detector event; status/vms
// are the reported state that fired the detector.
func (g *gmStint) relocate(overload bool, status types.NodeStatus, srcVMs []types.VMStatus) {
	if !g.lock() {
		return
	}
	src, exists := g.lcs[status.Spec.ID]
	if !exists || src.sleeping || src.busy > 0 {
		g.mu.Unlock()
		return
	}
	now := g.rt.Now()
	// Estimate demand for the source VMs from the store's retained series.
	vms := make([]types.VMStatus, len(srcVMs))
	copy(vms, srcVMs)
	for i := range vms {
		vms[i].Used = g.estimateVM(now, vms[i])
	}
	others := make([]types.NodeStatus, 0, len(g.lcs))
	for _, lc := range g.lcs {
		if lc.id == src.id || lc.sleeping || lc.busy > 0 {
			continue
		}
		others = append(others, lc.status)
	}
	policy, anomaly := g.cfg.Overload, "overload"
	if !overload {
		policy, anomaly = g.cfg.Underload, "underload"
	}
	srcView := g.views.Node(now, status)
	// A relocation is trace-root: the detector event, not a user request,
	// started this chain. Its migrations become child spans.
	span := g.cfg.Tracer.StartTrace(obs.KindRelocation, telemetry.NodeEntity(status.Spec.ID))
	span.SetPolicy(policy.Name())
	span.Annotate("anomaly", anomaly)
	span.SetView(srcView.Stats.Gen, srcView.Stats.Samples, srcView.Stats.Fresh, srcView.Stats.Truncated)
	if sk, ok := policy.(scheduling.SkipsAnomaly); ok && sk.SkipAnomaly(srcView) {
		// Deliberate inaction (e.g. trend-relocation judging the spike to be
		// draining on its own) — in particular, do NOT wake sleeping
		// capacity for it.
		g.mark("gm.relocations-skipped", 1)
		g.mu.Unlock()
		span.Finish("skipped")
		return
	}
	var ex *scheduling.Explain
	if span.Enabled() {
		ex = &scheduling.Explain{}
	}
	moves := policy.Relocate(srcView, vms, g.views.Nodes(now, others), ex)
	if span.Enabled() {
		for _, c := range ex.Candidates {
			span.Candidate(c.ID, c.Chosen, c.Reason)
		}
	}
	if len(moves) == 0 {
		// An unresolvable overload wakes sleeping capacity (Section III:
		// "LCs are woken up by the GM in case ... overload situations on
		// the LCs occur").
		if overload && g.cfg.EnergyEnabled {
			g.wakeOneLocked()
		}
		g.mu.Unlock()
		span.Finish("no-moves")
		return
	}
	g.mark("gm.relocations", int64(len(moves)))
	if overload {
		g.mark("gm.overload-events", 1)
	} else {
		g.mark("gm.underload-events", 1)
	}
	for _, mv := range moves {
		sp := g.cfg.Tracer.StartSpan(obs.KindMigration, telemetry.VMEntity(mv.VM), span.Context())
		sp.SetTarget(string(mv.To))
		sp.Annotate("from", string(mv.From))
		g.migrateLocked(types.Migration{VM: mv.VM, From: mv.From, To: mv.To}, sp.Context(), 1, func(ok bool) {
			if ok {
				sp.Finish("migrated")
			} else {
				sp.Finish("failed")
			}
		})
	}
	g.mu.Unlock()
	span.Finish("executing")
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

// migrateLocked issues attempt number attempt of a live migration of a VM
// running on mv.From, the primitive behind relocation and consolidation. The
// entry is migrating (both endpoints busy) until the outcome, the destination
// charged the reservation. A failed attempt leaves the VM on the source and
// is retried until gm.migration-abandoned. sc, the decision span's context,
// rides the request and the vm.state event. done gets the outcome once,
// never under m.mu.
func (g *gmStint) migrateLocked(mv types.Migration, sc obs.SpanContext, attempt int, done func(ok bool)) {
	e, src, dst := g.ledger[mv.VM], g.lcs[mv.From], g.lcs[mv.To]
	if e == nil || e.state != vmRunning || e.node != src || dst == nil {
		g.rt.After(0, func() { done(false) })
		return
	}
	// Reflect the reservation shift optimistically.
	dst.status.Reserved = dst.status.Reserved.Add(e.vm.Spec.Requested)
	g.setLocked(e, vmPhase{state: vmMigrating, node: src, dst: dst, from: e.from})
	e.attempt = attempt
	mreq := protocol.MigrateVMRequest{VM: mv.VM, DestNode: mv.To, DestAddr: string(dst.addr), TraceID: sc.TraceID, ParentSpan: sc.SpanID}
	srcAddr := src.addr
	g.rt.After(0, func() {
		g.bus.Call(g.cfg.Addr, srcAddr, protocol.KindMigrateVM, mreq, g.cfg.CallTimeout,
			func(reply any, err error) {
				ack, isAck := reply.(protocol.MigrateVMResponse)
				ok := err == nil && isAck && ack.OK
				g.mu.Lock()
				if g.ledger[mv.VM] == e && e.state == vmMigrating && e.dst == dst && e.attempt == attempt {
					if ok {
						g.setLocked(e, vmPhase{state: vmRunning, node: dst, from: src})
						e.grace = true
					} else {
						g.setLocked(e, vmPhase{state: vmRunning, node: src, from: e.from})
					}
				}
				g.mu.Unlock()
				if !ok {
					g.mark("gm.migrations-failed", 1)
					if attempt < migrationAttempts {
						// Bounded retry: back off and re-issue. A VM or LC
						// that left meanwhile aborts the retry.
						g.mark("gm.migration-retries", 1)
						g.rt.After(migrationDelay(mv.VM, attempt+1), func() {
							if !g.lock() {
								done(false)
								return
							}
							g.migrateLocked(mv, sc, attempt+1, done)
							g.mu.Unlock()
						})
						return
					}
					g.mark("gm.migration-abandoned", 1)
					g.emit(telemetry.EventMigrationAbandoned, telemetry.VMEntity(mv.VM),
						vmStateAttrs(sc, "from", string(mv.From), "to", string(mv.To),
							"attempts", strconv.Itoa(attempt)))
					done(false)
					return
				}
				g.mark("gm.migrations-ok", 1)
				g.emit(telemetry.EventVMState, telemetry.VMEntity(mv.VM),
					vmStateAttrs(sc, "state", "migrated", "from", string(mv.From), "to", string(mv.To)))
				done(true)
			})
	})
}

// gmSweepTick detects failed LCs ("GM failures are detected by the GL based
// on missing heartbeats" — symmetrically, LC heartbeats here) and invalidates
// them; optionally their VMs are rescheduled from snapshots (Section II-E).
func (g *gmStint) sweepTick() {
	if !g.lock() {
		return
	}
	now := g.rt.Now()
	var lost []*vmEntry
	var failed []types.NodeID
	for id, lc := range g.lcs {
		if lc.sleeping || lc.waking {
			continue // deliberate sleep: heartbeat silence is expected
		}
		if now-lc.lastSeen > g.cfg.LCTimeout {
			lost = append(lost, g.dropLCLocked(lc)...)
			failed = append(failed, id)
			g.mark("gm.lc-failures", 1)
		}
	}
	// A lost VM's entry left the ledger with its LC. Re-placing it takes a
	// fresh entry that nothing waits on and no request can have joined.
	batch := make([]placement, len(lost))
	for i, e := range lost {
		batch[i] = placement{e: &vmEntry{vm: e.vm}, spec: e.vm.Spec}
	}
	g.mu.Unlock()
	slices.SortFunc(batch, func(a, b placement) int { return cmp.Compare(a.spec.ID, b.spec.ID) })
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	for _, id := range failed {
		entity := telemetry.NodeEntity(id)
		g.emit(telemetry.EventLCFailed, entity, telemetry.A("gm", string(g.cfg.ID)))
		g.tel.ForgetEntity(entity)
	}
	// VMs that died with the node (no rescheduling) get a terminal vm.state;
	// the hub drops their series on that event, so dead VMs do not linger in
	// the store. Rescheduled VMs keep their series while a new LC reports
	// them — the workload lives on; the series of those not placed again are
	// reaped. One journaled batch covers the whole wave: a failed LC can take
	// dozens of VMs with it, and per-event fan-out locking would serialize it.
	if len(batch) == 0 {
		return
	}
	entities := make([]string, len(batch))
	for i, p := range batch {
		entities[i] = telemetry.VMEntity(p.spec.ID)
	}
	if !g.cfg.RescheduleOnLCFailure {
		evs := make([]telemetry.Event, len(batch))
		for i, entity := range entities {
			evs[i] = telemetry.Event{At: now, Type: telemetry.EventVMState,
				Entity: entity, Attrs: telemetry.A("state", "failed")}
		}
		g.tel.EmitBatch(evs)
		return
	}
	g.mark("gm.vm-reschedules", int64(len(batch)))
	g.reapUnfedLater(entities)
	if !g.lock() {
		return
	}
	g.placeLocked(batch, false)
	g.mu.Unlock()
	g.finishPlacements(batch)
}

// deadline is the debounce-then-keep-earliest-deadline machine behind the
// GM's event-driven idle check (g.energy): the GM's own idle reports kick
// it, a burst of kicks collapses into one runtime event that calls fire, and
// of the instants it is armed for only the earliest stays scheduled.
//
// kick touches nothing but the atomic and defers the real work to a runtime
// event, so it may run with or without m.mu held. Everything else is guarded
// by m.mu.
type deadline struct {
	m    *Manager
	fire func() // called without m.mu on a kick and at the armed instant

	kicked atomic.Bool

	at     time.Duration
	cancel simkernel.Canceler
}

// kick schedules one fire at the current instant unless one already is.
func (d *deadline) kick() {
	if !d.kicked.CompareAndSwap(false, true) {
		return
	}
	d.m.rt.After(0, func() {
		d.kicked.Store(false)
		d.fire()
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

// stopLocked cancels the scheduled instant.
func (d *deadline) stopLocked() {
	if d.cancel != nil {
		d.cancel.Cancel()
		d.cancel = nil
	}
	d.at = 0
}

// gmEnergyCheck suspends LCs that have been idle past the administrator's
// threshold (Section III) and wakes capacity when placements are queued. It
// is event-driven: a monitor report or join of an idle node kicks it through
// g.energy, and when it finds idle-but-not-yet-ripe nodes it re-arms itself
// for the exact moment the earliest one ripens — so large idle groups cost no
// periodic tick work at all.
func (g *gmStint) energyCheck() {
	if !g.cfg.EnergyEnabled || !g.lock() {
		return
	}
	now := g.rt.Now()
	type target struct {
		addr transport.Address
		id   types.NodeID
	}
	var toSuspend []target
	var nextRipe time.Duration
	for _, lc := range g.lcs {
		if lc.sleeping || lc.waking || lc.busy > 0 || len(lc.hosted) > 0 {
			continue
		}
		if lc.status.Power != types.PowerOn || !lc.status.Idle {
			continue
		}
		ripe := time.Duration(lc.status.IdleSince) + g.cfg.IdleThreshold
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
	pendingLeft := g.waiting
	if pendingLeft > 0 {
		// Queued placements keep a bounded retry heartbeat alive (a wake
		// call may have failed); it stops as soon as the queue drains.
		retry := now + g.cfg.IdleThreshold/2
		if nextRipe == 0 || retry < nextRipe {
			nextRipe = retry
		}
	}
	if nextRipe > 0 {
		g.energy.armLocked(nextRipe)
	}
	g.mu.Unlock()
	sort.Slice(toSuspend, func(i, j int) bool { return toSuspend[i].id < toSuspend[j].id })
	for _, t := range toSuspend {
		g.mark("gm.suspends", 1)
		sp := g.cfg.Tracer.StartTrace(obs.KindEnergy, telemetry.NodeEntity(t.id))
		sp.Annotate("action", "suspend")
		g.bus.Call(g.cfg.Addr, t.addr, protocol.KindSuspendHost, struct{}{}, g.cfg.CallTimeout,
			func(reply any, err error) {
				if err != nil {
					sp.Finish("failed")
					// Suspend refused (e.g. a VM landed meanwhile) or lost:
					// unmark and arm a re-check, so a still-idle node is
					// suspended again on the retry heartbeat rather than at
					// whichever of its idle reports comes next.
					if !g.lock() {
						return
					}
					if rec, ok := g.lcs[t.id]; ok {
						rec.sleeping = false
						rec.status.Power = types.PowerOn
					}
					g.energy.armLocked(g.rt.Now() + g.cfg.IdleThreshold/2)
					g.mu.Unlock()
					return
				}
				sp.Finish("ok")
			})
	}
	if pendingLeft > 0 && g.lock() {
		g.wakeOneLocked()
		g.mu.Unlock()
		g.drainPending()
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

// LCCount returns the GM stint's (active, sleeping) LC counts, 0 when the
// manager is not a GM — experiment instrumentation.
func (m *Manager) LCCount() (active, sleeping int) {
	m.readGM(func(g *gmStint) {
		for _, lc := range g.lcs {
			if lc.sleeping {
				sleeping++
			} else {
				active++
			}
		}
	})
	return active, sleeping
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
	var g *gmStint
	if sr.Count > 0 {
		g = m.lockGM()
	}
	if g == nil {
		req.Respond(protocol.ShedResponse{})
		return
	}
	var cands []*lcRecord
	for _, lc := range g.lcs {
		if !lc.sleeping && !lc.waking && lc.busy == 0 {
			cands = append(cands, lc)
		}
	}
	// Fewest VMs first (their monitoring history is cheapest to lose),
	// then by ID for determinism.
	slices.SortFunc(cands, func(a, b *lcRecord) int {
		return cmp.Or(cmp.Compare(len(a.hosted), len(b.hosted)), cmp.Compare(a.id, b.id))
	})
	cands = cands[:min(len(cands), sr.Count)]
	var handed []string
	for _, c := range cands {
		g.shedLCs[c.id] = m.rt.Now() + m.cfg.LCTimeout
		// The LC keeps its VMs; the GM it rejoins adopts them and feeds
		// their series from its first report.
		for _, e := range g.dropLCLocked(c) {
			handed = append(handed, telemetry.VMEntity(e.vm.Spec.ID))
		}
	}
	m.mu.Unlock()
	m.reapUnfedLater(handed)
	for _, c := range cands {
		m.bus.Call(m.cfg.Addr, c.addr, protocol.KindRejoin, struct{}{}, m.cfg.CallTimeout, func(any, error) {})
	}
	m.mark("gm.lcs-shed", int64(len(cands)))
	req.Respond(protocol.ShedResponse{Released: len(cands)})
}

// gmOnInventory serves the api/v1 control-plane reads: the monitored status
// of the managed LCs plus the VMs the ledger has running or migrating on
// them, with the hosting node filled in, both ordered by ID. Each LC carries
// the age of its last monitor report so aggregators can discard a stale claim
// when another GM reports the same LC more freshly. An InventoryRequest
// narrows the reply (and the copying done under the manager lock) to one VM
// and its host, or to the nodes alone; any other payload — a sender that
// predates the request type — gets everything.
func (m *Manager) gmOnInventory(req *transport.Request) {
	want, _ := req.Payload.(protocol.InventoryRequest)
	g := m.lockGM()
	if g == nil {
		req.Respond(protocol.InventoryResponse{Scheduling: m.schedulingInfo()})
		return
	}
	now := m.rt.Now()
	var resp protocol.InventoryResponse
	listed := func(e *vmEntry) bool { // hosted, with a status a report gave
		return e != nil && e.seen != 0 && (e.state == vmRunning || e.state == vmMigrating)
	}
	node := func(lc *lcRecord) protocol.InventoryNode {
		return protocol.InventoryNode{Status: lc.status, AgeNs: int64(now - lc.lastSeen)}
	}
	if want.VM != "" {
		if e := g.ledger[want.VM]; listed(e) {
			resp.VMs, resp.Nodes = []types.VMStatus{e.vm}, []protocol.InventoryNode{node(e.node)}
			resp.VMs[0].Node = e.node.id
		}
	} else {
		// Sized once; Grow leaves an empty list nil, as appending to it did.
		resp.Nodes = slices.Grow(resp.Nodes, len(g.lcs))
		if !want.NodesOnly {
			resp.VMs = slices.Grow(resp.VMs, len(g.ledger))
		}
		for _, lc := range g.lcs {
			resp.Nodes = append(resp.Nodes, node(lc))
			if want.NodesOnly {
				continue
			}
			for _, e := range lc.hosted {
				if listed(e) {
					resp.VMs = append(resp.VMs, e.vm)
					resp.VMs[len(resp.VMs)-1].Node = lc.id
				}
			}
		}
	}
	m.mu.Unlock()
	resp.Scheduling = m.schedulingInfo()
	slices.SortFunc(resp.Nodes, func(a, b protocol.InventoryNode) int {
		return strings.Compare(string(a.Status.Spec.ID), string(b.Status.Spec.ID))
	})
	sortVMsByID(resp.VMs)
	req.Respond(resp)
}

// sortVMsByID orders vms by ID. It sorts indexes, then permutes vms in place
// cycle by cycle, so each status moves once rather than at every swap.
func sortVMsByID(vms []types.VMStatus) {
	order := make([]int32, len(vms))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(string(vms[a].Spec.ID), string(vms[b].Spec.ID)) })
	// Position i takes vms[order[i]]; a done position is marked order[i] = i.
	for i := range order {
		if int(order[i]) == i {
			continue
		}
		held, j := vms[i], i
		for {
			k := int(order[j])
			order[j] = int32(j)
			if k == i {
				vms[j] = held
				break
			}
			vms[j] = vms[k]
			j = k
		}
	}
}

// LCBusy exposes the GM stint's per-LC in-flight migration counts
// (instrumentation).
func (m *Manager) LCBusy() map[types.NodeID]int {
	out := make(map[types.NodeID]int)
	m.readGM(func(g *gmStint) {
		for id, lc := range g.lcs {
			if lc.busy != 0 {
				out[id] = lc.busy
			}
		}
	})
	return out
}
