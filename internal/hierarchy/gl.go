package hierarchy

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/scheduling/view"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// This file implements the Group Leader role: GL heartbeats, GM bookkeeping,
// LC→GM assignment and VM submission dispatching (Sections II-A, II-C).

// becomeGLLocked promotes this manager to Group Leader.
func (m *Manager) becomeGLLocked() {
	if m.role == RoleGL {
		return
	}
	m.role = RoleGL
	m.epoch++
	m.mark("gl.promotions", 1)
	m.emit(telemetry.EventGLElected, telemetry.GMEntity(m.cfg.ID),
		telemetry.A("addr", string(m.cfg.Addr)))
	// GM-side state is abandoned: "GL and GMs do not host VMs" and the
	// paper's promoted GM sheds its LCs, which rejoin through the new GL.
	m.lcs = make(map[types.NodeID]*lcRecord)
	m.glAddr = ""
	failPendingLocked(m)
	m.gms = make(map[types.GroupManagerID]*gmRecord)
	m.stopTickersLocked()
	m.addTicker(m.cfg.HeartbeatPeriod, m.glHeartbeatTick)
	m.addTicker(m.cfg.GMTimeout/3, m.glSweepTick)
	// Announce leadership immediately: a fast first heartbeat shortens the
	// healing window after GL failover (Section II-E).
	m.rt.After(0, m.glHeartbeatTick)
}

func failPendingLocked(m *Manager) {
	pending := m.pending
	m.pending = nil
	for _, p := range pending {
		p := p
		m.rt.After(0, func() { p.respond("", false) })
	}
}

// glHeartbeatTick multicasts the GL heartbeat on GroupGL; EPs and unassigned
// LCs listen (Section II-D).
func (m *Manager) glHeartbeatTick() {
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		return
	}
	epoch := m.epoch
	m.mu.Unlock()
	hb := protocol.GLHeartbeat{Addr: string(m.cfg.Addr), Epoch: epoch}
	m.bus.Multicast(m.cfg.Addr, protocol.GroupGL, protocol.KindGLHeartbeat, hb)
}

// glSweepTick prunes GMs whose summaries stopped arriving: "GM failures are
// detected by the GL based on missing heartbeats, and its contact
// information is gracefully removed in order to prevent new VMs from being
// scheduled on it" (Section II-E). It also rebalances LC assignments when
// the population is badly skewed (e.g. after autonomic role assignment
// grows the GM population, Section V).
func (m *Manager) glSweepTick() {
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		return
	}
	now := m.rt.Now()
	var failedGMs []types.GroupManagerID
	for id, gm := range m.gms {
		if now-gm.lastSeen > m.cfg.GMTimeout {
			delete(m.gms, id)
			failedGMs = append(failedGMs, id)
			m.mark("gl.gm-failures", 1)
		}
	}
	// Rebalance: if the most-loaded GM manages at least 4 more LCs than
	// the least-loaded one, ask it to shed half the difference.
	var minGM, maxGM *gmRecord
	for _, gm := range m.gms {
		n := gm.summary.ActiveLCs + gm.summary.AsleepLCs
		if minGM == nil || n < minGM.summary.ActiveLCs+minGM.summary.AsleepLCs ||
			(n == minGM.summary.ActiveLCs+minGM.summary.AsleepLCs && gm.id < minGM.id) {
			minGM = gm
		}
		if maxGM == nil || n > maxGM.summary.ActiveLCs+maxGM.summary.AsleepLCs ||
			(n == maxGM.summary.ActiveLCs+maxGM.summary.AsleepLCs && gm.id < maxGM.id) {
			maxGM = gm
		}
	}
	var shedAddr transport.Address
	var shedID types.GroupManagerID
	shed := 0
	if minGM != nil && maxGM != nil && minGM != maxGM {
		lo := minGM.summary.ActiveLCs + minGM.summary.AsleepLCs
		hi := maxGM.summary.ActiveLCs + maxGM.summary.AsleepLCs
		if hi-lo >= 4 {
			shed = (hi - lo) / 2
			shedAddr = maxGM.addr
			shedID = maxGM.id
			// Optimistically shrink the summary so the next sweep does not
			// re-issue before fresh summaries arrive.
			maxGM.summary.ActiveLCs -= shed
		}
	}
	m.mu.Unlock()
	sort.Slice(failedGMs, func(i, j int) bool { return failedGMs[i] < failedGMs[j] })
	for _, id := range failedGMs {
		// A dead GM never sweeps again: drop its owner stamps before the
		// gm.failed event arms the survivors' liveness sweeps, so VMs that
		// vanished with it are reaped once their grace runs out. Series of
		// LCs that rejoin a survivor are re-claimed by its monitoring flow.
		m.tel.Release(string(id))
		m.emit(telemetry.EventGMFailed, telemetry.GMEntity(id), telemetry.Attrs{})
	}
	if shed > 0 {
		m.mark("gl.rebalances", 1)
		m.emit(telemetry.EventRebalance, telemetry.GMEntity(shedID),
			telemetry.A("shed", fmt.Sprintf("%d", shed)))
		m.bus.Call(m.cfg.Addr, shedAddr, protocol.KindShed, protocol.ShedRequest{Count: shed}, m.cfg.CallTimeout,
			func(any, error) {})
	}
}

// glOnGMJoin enrolls a GM.
func (m *Manager) glOnGMJoin(req *transport.Request) {
	join, ok := req.Payload.(protocol.GMJoinRequest)
	if !ok {
		req.Respond(protocol.GMJoinResponse{})
		return
	}
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		req.Respond(protocol.GMJoinResponse{})
		return
	}
	rec, exists := m.gms[join.GM]
	if !exists {
		rec = &gmRecord{id: join.GM}
		m.gms[join.GM] = rec
	}
	rec.addr = transport.Address(join.Addr)
	rec.lastSeen = m.rt.Now()
	m.mu.Unlock()
	m.mark("gl.gm-joins", 1)
	if !exists {
		m.emit(telemetry.EventGMJoin, telemetry.GMEntity(join.GM),
			telemetry.A("addr", join.Addr))
	}
	req.Respond(protocol.GMJoinResponse{Accepted: true})
}

// glOnSummary ingests a GM summary (doubles as GM→GL heartbeat) and feeds
// the per-group telemetry series the summary carries.
func (m *Manager) glOnSummary(req *transport.Request) {
	up, ok := req.Payload.(protocol.SummaryUpdate)
	if !ok {
		return
	}
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		return
	}
	rec, exists := m.gms[up.Summary.GM]
	if !exists {
		rec = &gmRecord{id: up.Summary.GM, addr: transport.Address(up.Addr)}
		m.gms[up.Summary.GM] = rec
	}
	rec.summary = up.Summary
	if up.Scheduling != nil {
		rec.scheduling = up.Scheduling
	}
	rec.lastSeen = m.rt.Now()
	m.mu.Unlock()
	// The merged member-util sketch rides every summary, so the group series'
	// quantiles answer over the members' actual utilization distribution
	// instead of over the rollup's group averages. Adoption is monotone by
	// count and happens on every push path, including the rollup skip below —
	// the sketch is precisely the part of the push a shared-hub rollup does
	// NOT already provide.
	if up.UtilSketch != nil {
		if m.tel.Store().AdoptSketch(telemetry.GMEntity(up.Summary.GM), "util", *up.UtilSketch) {
			m.mark("gl.summary-sketch-adoptions", 1)
		}
	}
	// A GM pushing rollups on a hub shared with this GL already appends the
	// gm/<id> series from its own monitoring flow (gmOnMonitor) at heartbeat
	// cadence; re-recording the coarser summary here would double-feed the
	// series. The GM's claim stamp plus an O(1) freshness probe distinguishes
	// that case from a GM that feeds a hub of its own (a manager built
	// without one), where this record is the series' only feed. The
	// staleness bound keeps the GL recording when a claimed rollup went quiet
	// (a GM whose LCs all left stops ingesting monitor reports, hence stops
	// rolling up).
	if up.Rollup {
		entity := telemetry.GMEntity(up.Summary.GM)
		if owner, ok := m.tel.Owner(entity); ok && owner == string(up.Summary.GM) {
			if sm, ok := m.tel.Store().Newest(entity, "util"); ok && m.rt.Now()-sm.At <= 2*m.cfg.SummaryPeriod {
				m.mark("gl.summary-rollup-skips", 1)
				return
			}
		}
	}
	m.tel.RecordGroup(m.rt.Now(), up.Summary)
}

// glOnLCAssign assigns an LC to a GM. The default policy follows the paper's
// "least loaded GM" suggestion with a deterministic tie-break, so LCs spread
// across GMs as the hierarchy grows (Section II-D).
func (m *Manager) glOnLCAssign(req *transport.Request) {
	_, ok := req.Payload.(protocol.LCAssignRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	m.mu.Lock()
	if m.role != RoleGL || m.stopped || len(m.gms) == 0 {
		m.mu.Unlock()
		req.Respond(protocol.LCAssignResponse{})
		return
	}
	// Least-loaded by managed LC count, then by ID.
	var best *gmRecord
	for _, gm := range m.gms {
		if best == nil {
			best = gm
			continue
		}
		bl := best.summary.ActiveLCs + best.summary.AsleepLCs
		gl := gm.summary.ActiveLCs + gm.summary.AsleepLCs
		if gl < bl || (gl == bl && gm.id < best.id) {
			best = gm
		}
	}
	// Optimistically count the assignment so a burst of joining LCs
	// spreads instead of piling onto one GM before its next summary.
	best.summary.ActiveLCs++
	resp := protocol.LCAssignResponse{GM: best.id, Addr: string(best.addr)}
	m.mu.Unlock()
	m.mark("gl.lc-assignments", 1)
	req.Respond(resp)
}

// dispatchChunk caps the VMs one PlaceRequest carries.
const dispatchChunk = 32

// glOnSubmit serves a VM submission through the dispatcher (Section II-C).
func (m *Manager) glOnSubmit(req *transport.Request) {
	sub, ok := req.Payload.(protocol.SubmitRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	m.dispatch(sub.VMs, func(placed map[types.VMID]types.NodeID, unplaced []types.VMID) {
		req.Respond(protocol.SubmitResponse{Placed: placed, Unplaced: unplaced})
	})
}

// vmDispatch is one VM's progress through the dispatch rounds.
type vmDispatch struct {
	spec  types.VMSpec
	cands []types.GroupManagerID // ranked by the dispatch policy, probed in order
	span  obs.Span               // one-VM submissions only (see dispatch)
	ex    *scheduling.Explain    // the policy's evidence for span; nil when span records nothing
}

// finish closes the VM's dispatch span. The policy only ranks and the rounds
// decide, so candidate evidence is resolved here: chosen is the GM that placed
// the VM (empty when none did), probed how many candidates rejected it first.
func (vm *vmDispatch) finish(outcome string, chosen types.GroupManagerID, probed int) {
	if vm.ex != nil {
		for _, c := range vm.ex.Candidates {
			id, reason := types.GroupManagerID(c.ID), c.Reason
			if reason == "" && id != chosen { // shortlisted, not chosen: why not?
				reason = "not-probed"
				if slices.Contains(vm.cands[:probed], id) {
					reason = "place-rejected"
				}
			}
			vm.span.Candidate(c.ID, id == chosen, reason)
		}
	}
	vm.span.Finish(outcome)
}

// dispatch places a submission: the dispatch policy ranks candidate GMs per
// VM from the (inexact) summaries and the GL walks each VM's list linearly
// with placement requests (Section II-C), in rounds: in round r every still
// unplaced VM goes to its r-th candidate, VMs bound for one GM share
// PlaceRequests of up to dispatchChunk VMs, all requests of a round are in
// flight together, and VMs a GM rejects (or whose request timed out) advance
// to round r+1. done is invoked exactly once. A one-VM submission is thus the
// paper's linear probe, traced as one dispatch span on vm/<id> covering every
// round; a wave of N VMs is traced as one span per PlaceRequest on gm/<id>.
// The GM's placement spans link back to either.
func (m *Manager) dispatch(specs []types.VMSpec, done func(placed map[types.VMID]types.NodeID, unplaced []types.VMID)) {
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		done(nil, vmIDs(specs))
		return
	}
	start := m.rt.Now()
	summaries := make([]types.GroupSummary, 0, len(m.gms))
	addrs := make(map[types.GroupManagerID]transport.Address, len(m.gms))
	for _, gm := range m.gms {
		summaries = append(summaries, gm.summary)
		addrs[gm.id] = gm.addr
	}
	sort.Slice(summaries, func(i, j int) bool { return summaries[i].GM < summaries[j].GM })
	// Capacity views: the summaries enriched with windowed statistics of each
	// group's util series (fed by glOnSummary). One build serves the whole
	// submission: equally stale for every VM, which the policy tolerates.
	groups := m.views.Groups(start, summaries)
	group := func(gm types.GroupManagerID) *view.Group { // gm is in groups: the policy returned it
		return &groups[sort.Search(len(groups), func(i int) bool { return groups[i].GM >= gm })]
	}
	// First-fit-decreasing (CPU, then memory, ID tie-break): under capacity
	// pressure the order decides how well the bins pack. Under overcommit it
	// admits fewer, larger VMs than arrival order; the resource total is equal.
	vms := make([]vmDispatch, len(specs))
	for i, spec := range specs {
		vms[i].spec = spec
	}
	slices.SortFunc(vms, func(a, b vmDispatch) int {
		return cmp.Or(
			cmp.Compare(b.spec.Requested.CPU, a.spec.Requested.CPU),
			cmp.Compare(b.spec.Requested.Memory, a.spec.Requested.Memory),
			cmp.Compare(a.spec.ID, b.spec.ID))
	})
	policy := m.cfg.Dispatch.Name()
	single := len(vms) == 1
	waiting := make([]*vmDispatch, 0, len(vms))
	var unplaced []types.VMID
	for i := range vms {
		vm := &vms[i]
		if single {
			vm.span = m.cfg.Tracer.StartTrace(obs.KindDispatch, telemetry.VMEntity(vm.spec.ID))
			vm.span.SetPolicy(policy)
			if vm.span.Enabled() {
				vm.ex = &scheduling.Explain{}
			}
		}
		vm.cands = m.cfg.Dispatch.Candidates(vm.spec, groups, vm.ex)
		if len(vm.cands) == 0 {
			unplaced = append(unplaced, vm.spec.ID)
			vm.finish("no-candidates", "", 0)
			continue
		}
		// Charge the first choice in the local snapshot, so a load-aware policy
		// spreads the wave instead of herding it onto the emptiest-looking GM.
		g := group(vm.cands[0])
		g.Reserved = g.Reserved.Add(vm.spec.Requested)
		g.VMs++
		waiting = append(waiting, vm)
	}
	m.mu.Unlock()
	m.mark("gl.submissions", int64(len(specs)))
	if len(unplaced) > 0 {
		m.mark("gl.dispatch-no-candidates", int64(len(unplaced)))
	}

	placed := make(map[types.VMID]types.NodeID, len(waiting))
	var round func(r int, waiting []*vmDispatch)
	round = func(r int, waiting []*vmDispatch) {
		live := waiting[:0]
		for _, vm := range waiting {
			if r < len(vm.cands) {
				live = append(live, vm)
				continue
			}
			m.mark("gl.dispatch-exhausted", 1)
			unplaced = append(unplaced, vm.spec.ID)
			vm.finish("exhausted", "", r)
		}
		// One chunk per PlaceRequest: VMs sharing an r-th candidate, in GM order.
		slices.SortStableFunc(live, func(a, b *vmDispatch) int { return cmp.Compare(a.cands[r], b.cands[r]) })
		var chunks [][]*vmDispatch
		for len(live) > 0 {
			n := 1
			for n < len(live) && n < dispatchChunk && live[n].cands[r] == live[0].cands[r] {
				n++
			}
			chunks, live = append(chunks, live[:n]), live[n:]
		}
		if len(chunks) == 0 {
			m.observe("gl.submit-latency", m.rt.Now()-start)
			done(placed, unplaced)
			return
		}
		m.mark("gl.dispatch-batches", int64(len(chunks)))
		inflight := len(chunks)
		var rejected []*vmDispatch // with inflight and placed, under m.mu
		for _, chunk := range chunks {
			gm := chunk[0].cands[r]
			span := chunk[0].span
			if !single {
				span = m.cfg.Tracer.StartTrace(obs.KindDispatch, telemetry.GMEntity(gm))
				span.SetPolicy(policy)
				span.SetTarget(string(gm))
				span.Annotate("batch", strconv.Itoa(len(chunk)))
			}
			sc := span.Context()
			preq := protocol.PlaceRequest{VMs: make([]types.VMSpec, len(chunk)), TraceID: sc.TraceID, ParentSpan: sc.SpanID}
			for i, vm := range chunk {
				preq.VMs[i] = vm.spec
			}
			m.bus.Call(m.cfg.Addr, addrs[gm], protocol.KindPlace, preq, m.cfg.CallTimeout, func(reply any, err error) {
				pr, _ := reply.(protocol.PlaceResponse) // zero on error: every VM rejected
				got := 0
				m.mu.Lock()
				for _, vm := range chunk {
					node, ok := pr.Placed[vm.spec.ID]
					if !ok {
						rejected = append(rejected, vm)
						continue
					}
					got++
					placed[vm.spec.ID] = node
					m.observeValue("gl.probe-depth", float64(r+1))
					// Optimistic summary update: the next submissions of a
					// burst see this capacity committed before the GM says so.
					if rec, live := m.gms[gm]; live {
						rec.summary.Reserved = rec.summary.Reserved.Add(vm.spec.Requested)
						rec.summary.VMs++
					}
				}
				inflight--
				last, next := inflight == 0, rejected
				m.mu.Unlock()
				outcome := "partial"
				if got == len(chunk) {
					outcome = "placed"
				} else if got == 0 {
					outcome = "rejected"
				}
				if !single {
					span.Annotate("placed", strconv.Itoa(got))
					span.Finish(outcome)
				} else if got == 1 { // a rejection leaves the VM's span open for the next round
					st := group(gm).Stats
					span.SetTarget(string(gm))
					span.SetView(st.Gen, st.Samples, st.Fresh, st.Truncated)
					span.Annotate("node", string(pr.Placed[chunk[0].spec.ID]))
					span.Annotate("probe-depth", strconv.Itoa(r+1))
					chunk[0].finish(outcome, gm, r)
				}
				if last {
					round(r+1, next)
				}
			})
		}
	}
	round(0, waiting)
}

// glOnTopology exports the hierarchy for CLI visualization (Section II-A).
// A deep request fans out to every GM for per-LC detail.
func (m *Manager) glOnTopology(req *transport.Request) {
	tr, _ := req.Payload.(protocol.TopologyRequest) // zero value = shallow
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		req.RespondErr(errNotLeader)
		return
	}
	resp := protocol.TopologyResponse{
		GL: string(m.cfg.Addr),
		// The GL's own scheduling configuration travels with the topology;
		// each GM additionally reports its own (via summary pushes), so the
		// export stays truthful when groups run different policies.
		Scheduling: m.schedulingInfo(),
	}
	for _, gm := range m.gms {
		resp.GMs = append(resp.GMs, protocol.TopologyGM{
			GM: gm.id, Addr: string(gm.addr), Summary: gm.summary, Scheduling: gm.scheduling,
		})
	}
	m.mu.Unlock()
	sort.Slice(resp.GMs, func(i, j int) bool { return resp.GMs[i].GM < resp.GMs[j].GM })
	if !tr.Deep || len(resp.GMs) == 0 {
		req.Respond(resp)
		return
	}
	// Deep export: each GM's node records, which it lists by ID; unreachable
	// GMs simply contribute no detail.
	remaining := len(resp.GMs)
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	for i := range resp.GMs {
		i := i
		m.bus.Call(m.cfg.Addr, transport.Address(resp.GMs[i].Addr), protocol.KindInventory, protocol.InventoryRequest{NodesOnly: true}, m.cfg.CallTimeout,
			func(reply any, err error) {
				<-gate
				if inv, ok := reply.(protocol.InventoryResponse); ok && err == nil {
					lcs := make([]protocol.TopologyLC, len(inv.Nodes))
					for j, n := range inv.Nodes {
						lcs[j] = protocol.TopologyLC{
							ID:       n.Status.Spec.ID,
							Power:    n.Status.Power.String(),
							VMs:      len(n.Status.VMs),
							Reserved: n.Status.Reserved,
							Capacity: n.Status.Spec.Capacity,
						}
					}
					resp.GMs[i].LCs = lcs
				}
				remaining--
				done := remaining == 0
				gate <- struct{}{}
				if done {
					req.Respond(resp)
				}
			})
	}
}

var errNotLeader = fmtErr("hierarchy: not the group leader")

type fmtErr string

func (e fmtErr) Error() string { return string(e) }

// GMCount returns the number of enrolled GMs (GL role instrumentation).
func (m *Manager) GMCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.gms)
}
