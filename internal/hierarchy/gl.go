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

// glStint is one stint of the Group Leader role: from this manager's
// election to its crash or stop. It holds the GMs the GL knows, the shed gate
// and its periodic work; close is its exit. Its epoch is the sequence number
// of its election znode plus 1, which every later leader's exceeds: its
// heartbeats carry it, so EPs and AutoRole ignore those of a deposed GL still
// in flight. The manager's mu guards the stint's state.
type glStint struct {
	*Manager
	epoch   uint64
	gms     map[types.GroupManagerID]*gmRecord
	shed    shedGate
	tickers tickers
}

// newGLStint opens a GL stint with the given epoch; m.mu is held. "GL and
// GMs do not host VMs": the GM stint it follows is closed, and its LCs rejoin
// through the new GL.
func (m *Manager) newGLStint(epoch uint64) *glStint {
	l := &glStint{Manager: m, epoch: epoch, gms: make(map[types.GroupManagerID]*gmRecord)}
	m.mark("gl.promotions", 1)
	m.emit(telemetry.EventGLElected, telemetry.GMEntity(m.cfg.ID),
		telemetry.A("addr", string(m.cfg.Addr)))
	l.tickers.add(m.rt, m.cfg.HeartbeatPeriod, l.heartbeatTick)
	l.tickers.add(m.rt, m.cfg.GMTimeout/3, l.sweepTick)
	// Announce leadership immediately: a fast first heartbeat shortens the
	// healing window after GL failover (Section II-E).
	m.rt.After(0, l.heartbeatTick)
	return l
}

// close ends the stint: its periodic work stops.
func (l *glStint) close() { l.tickers.stop() }

// lock takes m.mu if l is still the manager's GL stint, and reports if it did.
func (l *glStint) lock() bool {
	l.mu.Lock()
	if l.gl != l {
		l.mu.Unlock()
		return false
	}
	return true
}

// heartbeatTick multicasts the GL heartbeat on GroupGL; EPs and unassigned
// LCs listen (Section II-D).
func (l *glStint) heartbeatTick() {
	if !l.lock() {
		return
	}
	l.mu.Unlock()
	hb := protocol.GLHeartbeat{Addr: string(l.cfg.Addr), Epoch: l.epoch}
	l.bus.Multicast(l.cfg.Addr, protocol.GroupGL, protocol.KindGLHeartbeat, hb)
}

// sweepTick prunes GMs whose summaries stopped arriving: "GM failures are
// detected by the GL based on missing heartbeats, and its contact
// information is gracefully removed in order to prevent new VMs from being
// scheduled on it" (Section II-E). It also rebalances LC assignments when
// the population is badly skewed (e.g. after autonomic role assignment
// grows the GM population, Section V).
func (l *glStint) sweepTick() {
	if !l.lock() {
		return
	}
	now := l.rt.Now()
	var failedGMs []types.GroupManagerID
	for id, gm := range l.gms {
		if now-gm.lastSeen > l.cfg.GMTimeout {
			delete(l.gms, id)
			failedGMs = append(failedGMs, id)
			l.mark("gl.gm-failures", 1)
		}
	}
	// Rebalance: if the most-loaded GM manages at least 4 more LCs than
	// the least-loaded one, ask it to shed half the difference, unless the
	// LCs of the last shed are still between GMs.
	minGM, maxGM := l.extremesLocked()
	var shedAddr transport.Address
	var shedID types.GroupManagerID
	shed := 0
	if minGM != maxGM {
		lo, hi := minGM.lcs(), maxGM.lcs()
		if hi-lo >= 4 && now >= l.shed.until {
			shed = (hi - lo) / 2
			shedAddr = maxGM.addr
			shedID = maxGM.id
			// Optimistically shrink the summary so the released LCs are
			// assigned elsewhere.
			maxGM.summary.ActiveLCs -= shed
			l.shed = shedGate{pending: shed, until: now + l.cfg.LCTimeout}
		}
	}
	l.mu.Unlock()
	sort.Slice(failedGMs, func(i, j int) bool { return failedGMs[i] < failedGMs[j] })
	var unfed []string
	for _, id := range failedGMs {
		// A dead GM feeds no series again: drop its owner stamps and reap
		// the VMs it fed that no survivor reports again. Those on LCs that
		// rejoin a survivor are fed and re-claimed by its monitoring flow.
		unfed = append(unfed, l.tel.Release(string(id))...)
		l.emit(telemetry.EventGMFailed, telemetry.GMEntity(id), telemetry.Attrs{})
	}
	l.reapUnfedLater(unfed)
	if shed > 0 {
		l.mark("gl.rebalances", 1)
		l.emit(telemetry.EventRebalance, telemetry.GMEntity(shedID),
			telemetry.A("shed", fmt.Sprintf("%d", shed)))
		l.bus.Call(l.cfg.Addr, shedAddr, protocol.KindShed, protocol.ShedRequest{Count: shed}, l.cfg.CallTimeout,
			func(any, error) {})
	}
}

// lcs is the number of LCs the GL counts for r's GM.
func (r *gmRecord) lcs() int { return r.summary.ActiveLCs + r.summary.AsleepLCs }

// extremesLocked returns the GMs with the fewest and the most LCs, a tie
// going to the lower ID; both are nil while the GL knows no GM.
func (l *glStint) extremesLocked() (least, most *gmRecord) {
	for _, gm := range l.gms {
		n := gm.lcs()
		if least == nil || n < least.lcs() || n == least.lcs() && gm.id < least.id {
			least = gm
		}
		if most == nil || n > most.lcs() || n == most.lcs() && gm.id < most.id {
			most = gm
		}
	}
	return least, most
}

// glOnGMJoin enrolls a GM.
func (m *Manager) glOnGMJoin(req *transport.Request) {
	join, ok := req.Payload.(protocol.GMJoinRequest)
	if !ok {
		req.Respond(protocol.GMJoinResponse{})
		return
	}
	l := m.lockGL()
	if l == nil {
		req.Respond(protocol.GMJoinResponse{})
		return
	}
	rec, exists := l.gms[join.GM]
	if !exists {
		rec = &gmRecord{id: join.GM}
		l.gms[join.GM] = rec
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
	l := m.lockGL()
	if l == nil {
		return
	}
	rec, exists := l.gms[up.Summary.GM]
	if !exists {
		rec = &gmRecord{id: up.Summary.GM, addr: transport.Address(up.Addr)}
		l.gms[up.Summary.GM] = rec
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
	// Every GM appends its own gm/<id> rollup series from its monitoring
	// flow (gmOnMonitor) at heartbeat cadence; when it shares this GL's hub,
	// re-recording the coarser summary here would double-feed the series.
	// The GM's claim stamp plus an O(1) freshness probe distinguishes that
	// case from a GM that feeds a hub of its own (a manager built without
	// one), where this record is the series' only feed. The staleness bound
	// keeps the GL recording when a claimed rollup went quiet (a GM whose LCs
	// all left stops ingesting monitor reports, hence stops rolling up).
	entity := telemetry.GMEntity(up.Summary.GM)
	if owner, ok := m.tel.Owner(entity); ok && owner == string(up.Summary.GM) {
		if sm, ok := m.tel.Store().Newest(entity, "util"); ok && m.rt.Now()-sm.At <= 2*m.cfg.SummaryPeriod {
			m.mark("gl.summary-rollup-skips", 1)
			return
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
	l := m.lockGL()
	if l == nil {
		req.Respond(protocol.LCAssignResponse{})
		return
	}
	best, _ := l.extremesLocked()
	if best == nil {
		m.mu.Unlock()
		req.Respond(protocol.LCAssignResponse{})
		return
	}
	// Optimistically count the assignment so a burst of joining LCs
	// spreads instead of piling onto one GM before its next summary.
	best.summary.ActiveLCs++
	if l.shed.pending > 0 {
		if l.shed.pending--; l.shed.pending == 0 {
			l.shed.until = m.rt.Now() + m.cfg.SummaryPeriod
		}
	}
	resp := protocol.LCAssignResponse{GM: best.id, Addr: string(best.addr)}
	m.mu.Unlock()
	m.mark("gl.lc-assignments", 1)
	req.Respond(resp)
}

// dispatchChunk caps the VMs one PlaceRequest carries.
const dispatchChunk = 32

// glOnSubmit serves a VM submission through the dispatcher (Section II-C). A
// manager that is not the GL refuses it with protocol.ErrNotLeader, having
// dispatched nothing.
func (m *Manager) glOnSubmit(req *transport.Request) {
	sub, ok := req.Payload.(protocol.SubmitRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	err := m.dispatch(sub.VMs, func(placed map[types.VMID]types.NodeID, unplaced []types.VMID) {
		req.Respond(protocol.SubmitResponse{Placed: placed, Unplaced: unplaced})
	})
	if err != nil {
		req.RespondErr(err)
	}
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
// to round r+1. done is invoked exactly once, unless the manager is not the
// GL: dispatch then returns protocol.ErrNotLeader and sends nothing. A one-VM
// submission is thus the paper's linear probe, traced as one dispatch span on
// vm/<id> covering every round; a wave of N VMs is traced as one span per
// PlaceRequest on gm/<id>. The GM's placement spans link back to either.
func (m *Manager) dispatch(specs []types.VMSpec, done func(placed map[types.VMID]types.NodeID, unplaced []types.VMID)) error {
	l := m.lockGL()
	if l == nil {
		return protocol.ErrNotLeader
	}
	start := m.rt.Now()
	summaries := make([]types.GroupSummary, 0, len(l.gms))
	addrs := make(map[types.GroupManagerID]transport.Address, len(l.gms))
	for _, gm := range l.gms {
		summaries = append(summaries, gm.summary)
		addrs[gm.id] = gm.addr
	}
	slices.SortFunc(summaries, func(a, b types.GroupSummary) int { return cmp.Compare(a.GM, b.GM) })
	// Capacity views: the summaries enriched with windowed statistics of each
	// group's util series (fed by glOnSummary). One build serves the whole
	// submission: equally stale for every VM, which the policy tolerates.
	groups := m.views.Groups(start, summaries)
	group := func(gm types.GroupManagerID) *view.Group { // gm is in groups: the policy returned it
		return &groups[sort.Search(len(groups), func(i int) bool { return groups[i].GM >= gm })]
	}
	// First-fit-decreasing (CPU, then memory, ID tie-break): under capacity
	// pressure the order decides how well the bins pack. Under overcommit it
	// admits fewer, larger VMs than submission order; the resource total is equal.
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
					if rec, live := l.gms[gm]; live {
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
	return nil
}

// glOnTopology exports the hierarchy for CLI visualization (Section II-A).
// A deep request fans out to every GM for per-LC detail.
func (m *Manager) glOnTopology(req *transport.Request) {
	tr, _ := req.Payload.(protocol.TopologyRequest) // zero value = shallow
	l := m.lockGL()
	if l == nil {
		req.RespondErr(protocol.ErrNotLeader)
		return
	}
	resp := protocol.TopologyResponse{
		GL: string(m.cfg.Addr),
		// The GL's own scheduling configuration travels with the topology;
		// each GM additionally reports its own (via summary pushes), so the
		// export stays truthful when groups run different policies.
		Scheduling: m.schedulingInfo(),
	}
	for _, gm := range l.gms {
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

// GMCount returns the number of GMs the GL stint has enrolled, 0 when the
// manager is not the GL (instrumentation).
func (m *Manager) GMCount() int {
	l := m.lockGL()
	if l == nil {
		return 0
	}
	defer m.mu.Unlock()
	return len(l.gms)
}
