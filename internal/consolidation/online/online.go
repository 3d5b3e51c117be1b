// Package online runs consolidation as a continuous control loop — the
// paper's headline use of the ACO packer inside the autonomic GL/GM/LC
// hierarchy (Feller & Morin, Sections II-C and III). It is the only engine
// that executes consolidation: the paper's periodic reconfiguration policy
// family is this optimizer with an unlimited budget (MigrationBudget: -1).
//
// Each round the Optimizer builds its packing problem from live capacity
// views (scheduling/view) through consolidation.BuildProblem: VM demand is
// the p95 of the windowed per-VM series, falling back to the snapshot when
// history is thin, never raw points and never below the reservation the
// hypervisor admits on. The problem is solved by ant colonies
// (consolidation.ACO — independent colonies on goroutines sharing a
// deterministic best-plan exchange), and the resulting incremental plan is
// capped by a per-round migration budget. Plan execution is a small state
// machine: migrations are issued one at a time through the Host (the GM), and
// before each one the plan is re-validated against fresh views — a source
// whose load is falling or a receiver heating past the p95 gate cancels the
// remainder of the plan, because the trends it was computed from have shifted
// under it.
//
// Every round journals a consolidation.round event and every migration
// outcome a consolidation.migration event; the Host's counters
// (gm.consolidation-rounds, gm.consolidation-migrations,
// gm.consolidation-cancels) expose the same flow to metrics.
package online

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"snooze/internal/consolidation"
	"snooze/internal/obs"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/types"
)

// Defaults.
const (
	// DefaultPeriod is the round period.
	DefaultPeriod = 30 * time.Second
	// DefaultMigrationBudget caps migrations per round.
	DefaultMigrationBudget = 4
	// DefaultColonies is the ant-colony count.
	DefaultColonies = 4
	// DefaultReceiverHotP95 is the receiver-side cancellation gate: a
	// migration is cancelled when its destination's fresh p95 utilization
	// reaches this level.
	DefaultReceiverHotP95 = 0.90
	// DefaultSourceFallingTrend is the source-side cancellation gate in
	// utilization per second: a migration is cancelled when its source's
	// fresh load trend falls below this (the load is draining on its own,
	// so the plan's premise has shifted).
	DefaultSourceFallingTrend = -0.002
	// DefaultMinNodes is the minimum active node count worth consolidating.
	DefaultMinNodes = 2
)

// Config parameterizes the online optimizer. The zero value disables it; a
// Config with Enabled set and everything else zero runs with the defaults
// above.
type Config struct {
	// Enabled starts the optimizer with the GM role.
	Enabled bool
	// Period is the round period (DefaultPeriod when zero).
	Period time.Duration
	// MigrationBudget caps migrations per round
	// (DefaultMigrationBudget when zero; negative means unlimited).
	MigrationBudget int
	// Colonies is the ant-colony count (DefaultColonies when zero).
	Colonies int
	// ACO parameterizes every colony (consolidation.DefaultACOConfig when
	// zero). The per-round solver seed is derived from ACO.Seed and the
	// round number, so rounds explore independently yet reproducibly.
	ACO consolidation.ACOConfig
	// ReceiverHotP95 is the receiver-side cancellation gate
	// (DefaultReceiverHotP95 when zero).
	ReceiverHotP95 float64
	// SourceFallingTrend is the source-side cancellation gate
	// (DefaultSourceFallingTrend when zero).
	SourceFallingTrend float64
	// MinNodes is the minimum active node count worth consolidating
	// (DefaultMinNodes when zero).
	MinNodes int
	// Tracer records a consolidation.round span per round and a
	// consolidation.migration child span per planned migration (nil
	// disables tracing).
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = DefaultPeriod
	}
	if c.MigrationBudget == 0 {
		c.MigrationBudget = DefaultMigrationBudget
	}
	if c.Colonies <= 0 {
		c.Colonies = DefaultColonies
	}
	if c.ACO.Ants <= 0 || c.ACO.Cycles <= 0 {
		c.ACO = consolidation.DefaultACOConfig()
	}
	if c.ReceiverHotP95 <= 0 {
		c.ReceiverHotP95 = DefaultReceiverHotP95
	}
	if c.SourceFallingTrend == 0 {
		c.SourceFallingTrend = DefaultSourceFallingTrend
	}
	if c.MinNodes <= 0 {
		c.MinNodes = DefaultMinNodes
	}
	return c
}

// NodeLoad is one schedulable node plus its current view statistics.
type NodeLoad struct {
	Spec types.NodeSpec
	// Reserved sums every reservation held on the node, movable or not
	// (consolidation.LiveNode).
	Reserved types.ResourceVector
	// P95 and Trend summarize the node's windowed "util" series; Fresh
	// reports whether they are trustworthy (view.Stats semantics). Stale
	// statistics never cancel a migration.
	P95   float64
	Trend float64
	Fresh bool
}

// Snapshot is the optimizer's per-round input, assembled by the Host from
// live capacity views: the schedulable nodes and every running VM on them,
// priced at the demand the round plans against (p95 of the windowed series,
// snapshot fallback — see Host.ConsolidationSnapshot).
type Snapshot struct {
	Now   time.Duration
	Nodes []NodeLoad
	VMs   []consolidation.LiveVM
	// Epoch is the host's group-wide view epoch at assembly time (0 when the
	// host does not track one): a counter bumped by every state change that
	// can alter the views — monitor ingestion, reservations, migrations,
	// sleep/wake, membership. An unchanged epoch since the last completed
	// round means nothing moved, and the optimizer skips the round's solve
	// entirely.
	Epoch uint64
}

// Host is the optimizer's interface to the GM: problem input, fresh per-node
// re-validation views, migration execution, and the journal/metrics sinks.
// All methods must be safe to call from runtime callbacks.
type Host interface {
	// ConsolidationSnapshot assembles the round input; ok is false when the
	// host currently has nothing to consolidate (not in the GM role, too few
	// nodes).
	ConsolidationSnapshot() (Snapshot, bool)
	// NodeLoad returns a fresh view of one node for pre-migration
	// re-validation; ok is false when the node is gone or unschedulable.
	NodeLoad(id types.NodeID) (NodeLoad, bool)
	// Migrate issues one live migration; done is invoked exactly once with
	// the outcome.
	Migrate(m types.Migration, done func(ok bool))
	// Emit journals an event at the current runtime instant.
	Emit(typ, entity string, attrs map[string]string)
	// Mark bumps a counter.
	Mark(name string, delta int64)
}

// RoundInfo summarizes one completed round.
type RoundInfo struct {
	Round       uint64        `json:"round"`
	At          time.Duration `json:"at"`
	HostsBefore int           `json:"hostsBefore"`
	HostsAfter  int           `json:"hostsAfter"`
	Planned     int           `json:"planned"`
	Executed    int           `json:"executed"`
	Failed      int           `json:"failed"`
	Cancelled   int           `json:"cancelled"`
}

// Status is the optimizer's externally visible state.
type Status struct {
	Running    bool          `json:"running"`
	InRound    bool          `json:"inRound"`
	Rounds     uint64        `json:"rounds"`
	Migrations uint64        `json:"migrations"`
	Cancels    uint64        `json:"cancels"`
	Failures   uint64        `json:"failures"`
	Budget     int           `json:"budget"`
	Period     time.Duration `json:"period"`
	LastRound  *RoundInfo    `json:"lastRound,omitempty"`
}

// Optimizer is the continuous consolidation service: a Start/Stop lifecycle
// around a periodic round of snapshot → ACO solve → budgeted,
// trend-revalidated plan execution.
type Optimizer struct {
	rt   simkernel.Runtime
	host Host
	cfg  Config

	mu      sync.Mutex
	running bool
	ticker  *simkernel.Ticker
	gen     uint64 // bumped by Stop; orphans in-flight migration callbacks
	// lastEpoch is the snapshot epoch of the last round that ran its solve;
	// a tick whose snapshot carries the same (non-zero) epoch skips outright.
	lastEpoch uint64

	inRound bool
	round   uint64 // rounds completed
	mig     uint64 // migrations executed ok
	cancels uint64
	fails   uint64
	last    *RoundInfo

	// Current plan execution state (valid while inRound).
	span    obs.Span // round span (no-op when tracing is off)
	plan    []types.Migration
	next    int
	applied []types.Migration // successfully executed moves, in order
	info    RoundInfo
	start   types.Placement // placement the round planned from
}

// New creates an optimizer; call Start to begin rounds.
func New(rt simkernel.Runtime, host Host, cfg Config) *Optimizer {
	return &Optimizer{rt: rt, host: host, cfg: cfg.withDefaults()}
}

// Config returns the effective (default-filled) configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// Start begins periodic rounds. It is idempotent.
func (o *Optimizer) Start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.running {
		return
	}
	o.running = true
	// Tickers cannot be re-armed after Stop; each Start gets a fresh one.
	o.ticker = simkernel.NewTicker(o.rt, o.cfg.Period, o.tick)
	o.ticker.Start()
}

// Stop halts rounds and abandons any in-flight plan: pending migration
// callbacks from a previous generation are ignored. It is idempotent.
func (o *Optimizer) Stop() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.running {
		return
	}
	o.running = false
	o.gen++
	o.lastEpoch = 0 // a restarted optimizer re-plans unconditionally
	o.inRound = false
	o.span = obs.Span{}
	o.plan = nil
	o.start = nil
	if o.ticker != nil {
		o.ticker.Stop()
		o.ticker = nil
	}
}

// Status snapshots the optimizer state.
func (o *Optimizer) Status() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := Status{
		Running:    o.running,
		InRound:    o.inRound,
		Rounds:     o.round,
		Migrations: o.mig,
		Cancels:    o.cancels,
		Failures:   o.fails,
		Budget:     o.cfg.MigrationBudget,
		Period:     o.cfg.Period,
	}
	if o.last != nil {
		info := *o.last
		st.LastRound = &info
	}
	return st
}

// tick starts one round unless the previous one is still executing (a round
// that outlives the period is not stacked — the next tick picks up from the
// then-current state, which makes partially executed plans naturally
// idempotent: the follow-up round re-plans from wherever execution stopped).
func (o *Optimizer) tick() {
	o.mu.Lock()
	if !o.running || o.inRound {
		o.mu.Unlock()
		return
	}
	o.inRound = true
	gen := o.gen
	// The round is trace-root: the period tick, not a request, started it;
	// its migrations become child spans.
	span := o.cfg.Tracer.StartTrace(obs.KindConsolidationRound, "consolidation")
	o.span = span
	o.mu.Unlock()

	snap, ok := o.host.ConsolidationSnapshot()
	if !ok || len(snap.Nodes) < o.cfg.MinNodes || len(snap.VMs) == 0 {
		o.mu.Lock()
		o.inRound = false
		o.span = obs.Span{}
		o.mu.Unlock()
		span.Finish("skipped")
		return
	}
	// Epoch gate: an unchanged group-wide view epoch means no monitor
	// ingestion, placement, migration, sleep/wake or membership change
	// happened since the last solve — the same problem would be rebuilt and
	// re-solved. Skip the whole scan (including the ACO solve, the expensive
	// part) and wait for something to move.
	o.mu.Lock()
	if snap.Epoch != 0 && snap.Epoch == o.lastEpoch {
		o.inRound = false
		o.span = obs.Span{}
		o.mu.Unlock()
		span.Finish("skipped-unchanged")
		o.host.Mark("gm.consolidation-skips-unchanged", 1)
		return
	}
	o.lastEpoch = snap.Epoch
	o.mu.Unlock()
	o.runRound(gen, snap)
}

// runRound solves the packing problem and starts plan execution.
func (o *Optimizer) runRound(gen uint64, snap Snapshot) {
	nodes := make([]consolidation.LiveNode, len(snap.Nodes))
	for i, n := range snap.Nodes {
		nodes[i] = consolidation.LiveNode{Spec: n.Spec, Reserved: n.Reserved}
	}
	problem, current, specs := consolidation.BuildProblem(nodes, snap.VMs)

	cfg := o.cfg.ACO
	// Derive the round seed deterministically so rounds differ but replay.
	cfg.Seed = cfg.Seed + int64(o.roundNumber())*1000003
	solver := consolidation.ACO{Colonies: o.cfg.Colonies, Config: cfg}
	result, err := solver.Solve(problem)
	if err != nil {
		o.finishRound(gen, RoundInfo{At: snap.Now, HostsBefore: current.NodesUsed(), HostsAfter: current.NodesUsed()})
		return
	}

	hostsBefore := current.NodesUsed()
	info := RoundInfo{At: snap.Now, HostsBefore: hostsBefore, HostsAfter: hostsBefore}
	if result.HostsUsed >= hostsBefore {
		// No improvement: journal the no-op round and idle until next tick.
		o.finishRound(gen, info)
		return
	}
	plan := consolidation.Plan(current, result.Placement, specs, problem.Nodes)
	// Under a budget, an arbitrary prefix of the full plan tends to shuffle
	// VMs among the target's surviving hosts without emptying any source —
	// and since every round re-solves (with a fresh seed), the shuffling can
	// repeat forever. Spend the budget on whole-source evacuations instead:
	// those are the moves that actually free hosts.
	if b := o.cfg.MigrationBudget; b > 0 && len(plan) > b {
		plan = budgetedPlan(current, result.Placement, specs, problem.Nodes, b)
	}
	info.Planned = len(plan)
	if len(plan) == 0 {
		o.finishRound(gen, info)
		return
	}

	o.mu.Lock()
	if o.gen != gen {
		o.mu.Unlock()
		return
	}
	o.plan = plan
	o.next = 0
	o.applied = o.applied[:0]
	o.info = info
	o.start = current
	o.mu.Unlock()
	o.executeNext(gen)
}

// budgetedPlan selects at most budget moves of the target placement that make
// real packing progress: complete source evacuations, cheapest source first,
// with a partial evacuation of the next source if budget remains (the leftover
// VMs make that source cheaper for the following round). Moves between hosts
// the target keeps active are dropped — they never change the host count.
func budgetedPlan(current, target types.Placement, specs map[types.VMID]types.VMSpec, nodes []types.NodeSpec, budget int) []types.Migration {
	survivors := make(map[types.NodeID]bool, len(target))
	for _, node := range target {
		survivors[node] = true
	}
	bySource := map[types.NodeID][]types.VMID{}
	for vm, from := range current {
		if to, ok := target[vm]; ok && to != from && !survivors[from] {
			bySource[from] = append(bySource[from], vm)
		}
	}
	sources := make([]types.NodeID, 0, len(bySource))
	for id := range bySource {
		sources = append(sources, id)
	}
	sort.Slice(sources, func(i, j int) bool {
		a, b := sources[i], sources[j]
		if len(bySource[a]) != len(bySource[b]) {
			return len(bySource[a]) < len(bySource[b])
		}
		return a < b
	})
	partial := make(types.Placement, len(current))
	for vm, node := range current {
		partial[vm] = node
	}
	remaining := budget
	for _, src := range sources {
		vms := bySource[src]
		sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
		if len(vms) > remaining {
			vms = vms[:remaining]
		}
		for _, vm := range vms {
			partial[vm] = target[vm]
		}
		remaining -= len(vms)
		if remaining == 0 {
			break
		}
	}
	// Re-derive a feasibility-ordered sequence for exactly the selected moves.
	plan := consolidation.Plan(current, partial, specs, nodes)
	if len(plan) > budget {
		plan = plan[:budget]
	}
	return plan
}

func (o *Optimizer) roundNumber() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.round
}

// roundSpan returns the current round's span (a no-op span between rounds).
func (o *Optimizer) roundSpan() obs.Span {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.span
}

// executeNext issues the next migration of the current plan, re-validating it
// against fresh views first. A tripped gate cancels the remainder of the
// plan; an exhausted plan finishes the round.
func (o *Optimizer) executeNext(gen uint64) {
	for {
		o.mu.Lock()
		if o.gen != gen || !o.inRound {
			o.mu.Unlock()
			return
		}
		if o.next >= len(o.plan) {
			info := o.info
			o.mu.Unlock()
			o.finishRound(gen, info)
			return
		}
		m := o.plan[o.next]
		o.next++
		o.mu.Unlock()

		sp := o.cfg.Tracer.StartSpan(obs.KindConsolidationMigration, telemetry.VMEntity(m.VM), o.roundSpan().Context())
		sp.SetTarget(string(m.To))
		sp.Annotate("from", string(m.From))
		if reason, tripped := o.revalidate(m); tripped {
			// The trends the plan was computed from have shifted under it:
			// cancel this migration and the rest of the plan. The next round
			// re-plans from live state.
			sp.Annotate("reason", reason)
			sp.Finish("cancelled")
			o.host.Mark("gm.consolidation-cancels", 1)
			o.host.Emit(telemetry.EventConsolidationMigration, telemetry.VMEntity(m.VM), map[string]string{
				"outcome": "cancelled",
				"reason":  reason,
				"from":    string(m.From),
				"to":      string(m.To),
			})
			o.mu.Lock()
			o.cancels++
			o.info.Cancelled++
			o.next = len(o.plan) // abandon the remainder
			info := o.info
			o.mu.Unlock()
			o.finishRound(gen, info)
			return
		}

		o.host.Migrate(m, func(ok bool) {
			if ok {
				sp.Finish("executed")
			} else {
				sp.Finish("failed")
			}
			o.onMigrationDone(gen, m, ok)
		})
		return // onMigrationDone chains to the next migration
	}
}

// onMigrationDone records one migration outcome and chains execution.
func (o *Optimizer) onMigrationDone(gen uint64, m types.Migration, ok bool) {
	o.mu.Lock()
	if o.gen != gen || !o.inRound {
		o.mu.Unlock()
		return
	}
	if ok {
		o.mig++
		o.info.Executed++
		o.applied = append(o.applied, m)
	} else {
		o.fails++
		o.info.Failed++
	}
	o.mu.Unlock()
	outcome := "executed"
	if !ok {
		outcome = "failed"
	}
	if ok {
		o.host.Mark("gm.consolidation-migrations", 1)
	}
	o.host.Emit(telemetry.EventConsolidationMigration, telemetry.VMEntity(m.VM), map[string]string{
		"outcome": outcome,
		"from":    string(m.From),
		"to":      string(m.To),
	})
	o.executeNext(gen)
}

// revalidate checks one planned migration against fresh views: it is
// cancelled when the source's load is falling (the underload is draining on
// its own) or the receiver is heating past the p95 gate. Only fresh
// statistics trip the gates — thin or stale history never cancels.
func (o *Optimizer) revalidate(m types.Migration) (reason string, tripped bool) {
	if src, ok := o.host.NodeLoad(m.From); ok && src.Fresh && src.Trend < o.cfg.SourceFallingTrend {
		return "source-trend-falling", true
	}
	if dst, ok := o.host.NodeLoad(m.To); !ok {
		return "receiver-gone", true
	} else if dst.Fresh && dst.P95 >= o.cfg.ReceiverHotP95 {
		return "receiver-hot-p95", true
	}
	return "", false
}

// finishRound journals the round event, updates counters and returns the
// optimizer to the idle state.
func (o *Optimizer) finishRound(gen uint64, info RoundInfo) {
	o.mu.Lock()
	if o.gen != gen {
		o.mu.Unlock()
		return
	}
	o.round++
	info.Round = o.round
	// HostsAfter reflects plan execution: each executed migration off a
	// now-empty source frees it. Recompute cheaply from the plan outcome.
	if info.Executed > 0 && o.start != nil {
		info.HostsAfter = o.hostsAfterLocked()
	}
	o.last = &info
	o.inRound = false
	span := o.span
	o.span = obs.Span{}
	o.plan = nil
	o.start = nil
	o.mu.Unlock()

	span.Annotate("hostsBefore", fmt.Sprintf("%d", info.HostsBefore))
	span.Annotate("hostsAfter", fmt.Sprintf("%d", info.HostsAfter))
	span.Annotate("planned", fmt.Sprintf("%d", info.Planned))
	span.Annotate("executed", fmt.Sprintf("%d", info.Executed))
	span.Finish("completed")
	o.host.Mark("gm.consolidation-rounds", 1)
	o.host.Emit(telemetry.EventConsolidationRound, "", map[string]string{
		"round":       fmt.Sprintf("%d", info.Round),
		"hostsBefore": fmt.Sprintf("%d", info.HostsBefore),
		"hostsAfter":  fmt.Sprintf("%d", info.HostsAfter),
		"planned":     fmt.Sprintf("%d", info.Planned),
		"executed":    fmt.Sprintf("%d", info.Executed),
		"failed":      fmt.Sprintf("%d", info.Failed),
		"cancelled":   fmt.Sprintf("%d", info.Cancelled),
	})
}

// hostsAfterLocked computes the active host count after the executed moves:
// sources emptied by them no longer count. VMs outside the executed set are
// counted where the round found them, not where the target wanted them — a
// budget-truncated plan leaves them in place.
func (o *Optimizer) hostsAfterLocked() int {
	placement := make(types.Placement, len(o.start))
	for vm, node := range o.start {
		placement[vm] = node
	}
	for _, m := range o.applied {
		placement[m.VM] = m.To
	}
	return placement.NodesUsed()
}
