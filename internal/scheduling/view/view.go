// Package view materializes capacity views — the enriched scheduling inputs
// of the two-level hierarchy. The paper concedes that GL summaries are "not
// sufficient to take exact dispatching decisions" (Section II-C); a capacity
// view narrows that gap by pairing each point-in-time snapshot
// (types.NodeStatus / types.GroupSummary) with windowed statistics drawn from
// the telemetry store: utilization percentiles over a configurable horizon, a
// load trend, and a staleness stamp. Policies consume the view and fall back
// to the bare snapshot whenever the history is too thin or too old to trust
// (Stats.Fresh == false), so a cold deployment schedules exactly like the
// pre-telemetry code path.
//
// The same Builder also unifies demand estimation: per-VM windows are
// reconstructed from the store's retained series and reduced with any
// resource.Estimator, replacing the GM's former ad-hoc per-caller history
// rings with the store's single retention path.
package view

import (
	"sync"
	"time"

	"snooze/internal/resource"
	"snooze/internal/telemetry"
	"snooze/internal/types"
)

// Builder defaults.
const (
	// DefaultHorizon is the history window feeding a view's statistics.
	DefaultHorizon = 5 * time.Minute
	// DefaultMinSamples is the minimum retained sample count for stats to be
	// considered fresh; thinner histories fall back to the snapshot.
	DefaultMinSamples = 5
	// DefaultMaxAge bounds the age of the newest sample for stats to be
	// considered fresh; staler series fall back to the snapshot.
	DefaultMaxAge = time.Minute
)

// Stats are windowed utilization statistics of one entity's "util" series
// (L∞ utilization in [0,1]), as recorded by the hierarchy's monitoring flow.
type Stats struct {
	// Samples is the number of retained samples inside the horizon.
	Samples int
	// P50, P95 and Max summarize the window's utilization distribution.
	P50, P95, Max float64
	// Trend is the least-squares utilization slope in 1/second; negative
	// means the load is falling.
	Trend float64
	// Age is now minus the newest sample's timestamp.
	Age time.Duration
	// Truncated reports that the statistics window reached into evicted
	// history: the store served part of it at downsampled tier resolution
	// (or not at all), so the percentiles describe a decimated sample set,
	// not the full horizon. Truncated stats are never Fresh.
	Truncated bool
	// Fresh reports whether the statistics are trustworthy: enough samples,
	// recent enough, and at full resolution (not Truncated). Policies must
	// fall back to the point-in-time snapshot when false.
	Fresh bool
	// Gen is the telemetry append generation of the series these statistics
	// were reduced from (0 with no history) — the evidence a decision trace
	// records to pin a choice to the exact view it was priced from.
	Gen uint64
}

// Node is the capacity view of one Local Controller: the monitored snapshot
// plus windowed statistics.
type Node struct {
	types.NodeStatus
	Stats Stats
}

// Util returns the node's instantaneous L∞ utilization.
func (n Node) Util() float64 {
	return n.Used.Divide(n.Spec.Capacity).NormInf()
}

// PredictedUtil is the utilization a scheduler should plan against: the p95
// of recent history when the view is fresh, never less than the
// instantaneous utilization. With thin or stale history it degrades to the
// snapshot's utilization.
func (n Node) PredictedUtil() float64 {
	u := n.Util()
	if n.Stats.Fresh && n.Stats.P95 > u {
		return n.Stats.P95
	}
	return u
}

// Group is the capacity view of one Group Manager: the (inexact) summary
// plus windowed statistics of the group's "util" series.
type Group struct {
	types.GroupSummary
	Stats Stats
}

// Util returns the group's instantaneous L∞ utilization.
func (g Group) Util() float64 {
	return g.Used.Divide(g.Total).NormInf()
}

// PredictedUtil mirrors Node.PredictedUtil at group granularity.
func (g Group) PredictedUtil() float64 {
	u := g.Util()
	if g.Stats.Fresh && g.Stats.P95 > u {
		return g.Stats.P95
	}
	return u
}

// WrapNodes lifts bare snapshots into views with no history (Stats zero, not
// fresh) — the graceful-fallback form used when no telemetry hub is wired.
func WrapNodes(sts []types.NodeStatus) []Node {
	out := make([]Node, len(sts))
	for i, st := range sts {
		out[i] = Node{NodeStatus: st}
	}
	return out
}

// WrapGroups lifts bare summaries into views with no history.
func WrapGroups(sums []types.GroupSummary) []Group {
	out := make([]Group, len(sums))
	for i, s := range sums {
		out[i] = Group{GroupSummary: s}
	}
	return out
}

// Builder materializes capacity views from a telemetry hub. The zero value
// (nil Hub) builds snapshot-only views, so callers need no special casing
// for unwired deployments.
type Builder struct {
	// Hub is the deployment's telemetry hub; nil disables history.
	Hub *telemetry.Hub
	// Horizon is the statistics window (DefaultHorizon when zero).
	Horizon time.Duration
	// MinSamples gates freshness (DefaultMinSamples when zero).
	MinSamples int
	// MaxAge gates freshness (DefaultMaxAge when zero).
	MaxAge time.Duration
	// Cache, when set, memoizes per-entity statistics keyed by the series'
	// append generation and reuses reduction/demand scratch buffers across
	// builds — the configuration long-lived schedulers (the hierarchy's
	// GL/GM) run with. Invalidation is automatic: any Append to the entity's
	// series changes its generation. Nil disables caching; every build then
	// reduces from the store directly.
	Cache *Cache
}

func (b Builder) horizon() time.Duration {
	if b.Horizon > 0 {
		return b.Horizon
	}
	return DefaultHorizon
}

func (b Builder) minSamples() int {
	if b.MinSamples > 0 {
		return b.MinSamples
	}
	return DefaultMinSamples
}

func (b Builder) maxAge() time.Duration {
	if b.MaxAge > 0 {
		return b.MaxAge
	}
	return DefaultMaxAge
}

// Node builds the capacity view of one node status at virtual time now.
func (b Builder) Node(now time.Duration, st types.NodeStatus) Node {
	return Node{NodeStatus: st, Stats: b.Stats(now, telemetry.NodeEntity(st.Spec.ID))}
}

// Nodes builds views for a node snapshot set.
func (b Builder) Nodes(now time.Duration, sts []types.NodeStatus) []Node {
	out := make([]Node, len(sts))
	for i, st := range sts {
		out[i] = b.Node(now, st)
	}
	return out
}

// Group builds the capacity view of one group summary at virtual time now.
func (b Builder) Group(now time.Duration, s types.GroupSummary) Group {
	return Group{GroupSummary: s, Stats: b.Stats(now, telemetry.GMEntity(s.GM))}
}

// Groups builds views for a summary set.
func (b Builder) Groups(now time.Duration, sums []types.GroupSummary) []Group {
	out := make([]Group, len(sums))
	for i, s := range sums {
		out[i] = b.Group(now, s)
	}
	return out
}

// specPool recycles reduction specs (and their scratch buffers) for cache-less
// builders, so even the uncached Stats path settles to zero steady-state
// allocations beyond the store's own work.
var specPool = sync.Pool{New: func() any {
	return &telemetry.SummarySpec{Percentiles: []float64{50, 95}, Trend: true}
}}

// Stats computes the windowed statistics of an entity's "util" series in a
// single store reduction (one pass, one sort for both percentiles) — or, with
// a Cache attached, a map lookup when the series generation is unchanged
// since the last build. With no hub or no retained samples it returns the
// zero Stats (not fresh).
func (b Builder) Stats(now time.Duration, entity string) Stats {
	if b.Hub == nil {
		return Stats{}
	}
	from := now - b.horizon()
	if from < 0 {
		from = 0
	}
	store := b.Hub.Store()
	if b.Cache != nil {
		return b.Cache.stats(b, store, now, from, entity)
	}
	spec := specPool.Get().(*telemetry.SummarySpec)
	defer specPool.Put(spec)
	sum, ok := store.Reduce(entity, "util", from, now, spec)
	if !ok {
		return Stats{}
	}
	st := Stats{
		Samples:   sum.Count,
		P50:       sum.Percentiles[0],
		P95:       sum.Percentiles[1],
		Max:       sum.Max,
		Trend:     sum.Trend,
		Age:       now - sum.LastAt,
		Truncated: sum.Truncated,
		Gen:       sum.Gen,
	}
	st.Fresh = st.Samples >= b.minSamples() && st.Age <= b.maxAge() && !st.Truncated
	return st
}

// DemandMetrics are the per-entity series jointly reconstructed by Demand,
// in the canonical ResourceVector component order.
var DemandMetrics = [4]string{"cpu.used", "mem.used", "net.rx", "net.tx"}

// Demand reconstructs a per-dimension utilization window for an entity from
// the store's retained series and reduces it with est — the store-backed
// replacement for the GM's former per-VM resource.History rings. The window
// is [now-Horizon, now], read at raw resolution only (Store.Window): demand
// estimators reduce real measurements, never retention-tier bucket averages.
// ok is false when no samples are retained (a caller should then fall back
// to the most recent measurement in hand).
func (b Builder) Demand(now time.Duration, entity string, est resource.Estimator) (types.ResourceVector, bool) {
	if b.Hub == nil || est == nil {
		return types.ResourceVector{}, false
	}
	from := now - b.horizon()
	if from < 0 {
		from = 0
	}
	store := b.Hub.Store()
	if b.Cache != nil {
		return b.Cache.demand(store, now, from, entity, est.Estimate)
	}
	var dims [4][]telemetry.Sample
	n := 0
	for d, metric := range DemandMetrics {
		dst := dims[d]
		store.Window(entity, metric, from, now, func(seg []telemetry.Sample) {
			dst = append(dst, seg...)
		})
		dims[d] = dst
		if len(dims[d]) > n {
			n = len(dims[d])
		}
	}
	if n == 0 {
		return types.ResourceVector{}, false
	}
	window := make([]types.ResourceVector, n)
	alignWindow(dims, window)
	return est.Estimate(window), true
}

// demandP95 is the estimator behind DemandP95 — shared so every consolidation
// path prices VMs identically.
var demandP95 = resource.Percentile{P: 95}

// DemandP95 reduces an entity's demand window with the p95 estimator — the
// single demand-extraction helper shared by the consolidation dry run
// (ConsolidationRequest demand=p95) and the online consolidation optimizer,
// so both price VMs from the same statistic over the same window.
func (b Builder) DemandP95(now time.Duration, entity string) (types.ResourceVector, bool) {
	return b.Demand(now, entity, demandP95)
}

// ConsolidationDemand prices one VM for consolidation packing: the p95 of
// its windowed demand series when history exists, else the most recent
// snapshot measurement — never raw points, and never less than the
// reservation, because that is what a destination admits the VM on
// (consolidation.BuildProblem). The online optimizer and the
// ConsolidationRequest demand=p95 dry run both price through this chain, so
// a dry-run plan predicts what the online service would execute.
func (b Builder) ConsolidationDemand(now time.Duration, vm types.VMStatus) types.ResourceVector {
	d := vm.Used
	if p95, ok := b.DemandP95(now, telemetry.VMEntity(vm.Spec.ID)); ok && !p95.Zero() {
		d = p95
	}
	return vm.Spec.Requested.Max(d)
}

// alignWindow zips per-dimension sample windows into resource vectors. The
// hierarchy appends all four dims per report, so the windows align;
// tail-align defensively in case a dimension started recording later.
func alignWindow(dims [4][]telemetry.Sample, window []types.ResourceVector) {
	n := len(window)
	for i := 0; i < n; i++ {
		var c [4]float64
		for d := range dims {
			if j := len(dims[d]) - n + i; j >= 0 {
				c[d] = dims[d][j].Value
			}
		}
		window[i] = types.FromComponents(c)
	}
}
