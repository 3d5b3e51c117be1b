package scheduling

// Telemetry-aware policies: the consumers of the windowed half of the
// capacity views. Each one degrades gracefully — a view whose Stats are not
// Fresh (thin history, stale series, no hub wired) is treated exactly like
// its point-in-time snapshot, so these policies are safe defaults even on a
// cold deployment.

import (
	"cmp"
	"slices"

	"snooze/internal/scheduling/view"
	"snooze/internal/types"
)

// P95HeadroomDispatch ranks GMs by predicted headroom: 1 minus the larger of
// the group's p95 utilization over the view horizon and its instantaneous
// utilization. A group that looks empty right now but ran hot for most of
// the window sorts behind a genuinely quiet one — the GL stops chasing
// transient dips in the (inexact) summaries. With thin history the score
// degrades to instantaneous utilization, i.e. least-loaded-by-utilization.
type P95HeadroomDispatch struct{}

// Candidates implements DispatchPolicy.
func (P95HeadroomDispatch) Candidates(vm types.VMSpec, groups []view.Group, ex *Explain) []types.GroupManagerID {
	type scored struct {
		id       types.GroupManagerID
		headroom float64
		free     float64
	}
	var sc []scored
	for _, g := range groups {
		if !feasible(vm, g) {
			ex.Reject(string(g.GM), ReasonInfeasible)
			continue
		}
		sc = append(sc, scored{
			id:       g.GM,
			headroom: 1 - g.PredictedUtil(),
			free:     g.Free().UtilizationL1(g.Total),
		})
	}
	slices.SortFunc(sc, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.headroom, a.headroom), cmp.Compare(b.free, a.free), cmp.Compare(a.id, b.id))
	})
	out := make([]types.GroupManagerID, len(sc))
	for i, s := range sc {
		out[i] = s.id
		ex.Shortlist(string(s.id))
	}
	return out
}

// Name implements DispatchPolicy.
func (P95HeadroomDispatch) Name() string { return "p95-headroom" }

// PercentileFitPlacement is best-fit over reservations, gated by predicted
// utilization: a node whose p95 utilization plus the VM's demand share would
// cross SafetyThreshold is not a candidate, even if its instantaneous load
// says otherwise — the "transiently idle but historically hot" node the
// paper's point-in-time estimates cannot see. If no node passes the safety
// gate (or histories are thin), it degrades to plain best-fit.
type PercentileFitPlacement struct {
	// SafetyThreshold caps predicted post-placement utilization
	// (default 0.9, the overload threshold).
	SafetyThreshold float64
}

func (p PercentileFitPlacement) threshold() float64 {
	if p.SafetyThreshold > 0 {
		return p.SafetyThreshold
	}
	return DefaultThresholds().Overload
}

// Place implements PlacementPolicy.
func (p PercentileFitPlacement) Place(vm types.VMSpec, nodes []view.Node, ex *Explain) (types.NodeID, bool) {
	th := p.threshold()
	best, found := types.NodeID(""), false
	bestFree := 0.0
	safe := func(n view.Node) bool {
		demand := vm.Requested.Divide(n.Spec.Capacity).NormInf()
		return n.PredictedUtil()+demand <= th
	}
	var feasibleIDs []types.NodeID
	for _, n := range sortedByID(nodes) {
		if !fits(vm, n) {
			ex.Reject(string(n.Spec.ID), unfitReason(n))
			continue
		}
		if !safe(n) {
			ex.Reject(string(n.Spec.ID), ReasonP95OverThreshold)
			continue
		}
		if ex != nil {
			feasibleIDs = append(feasibleIDs, n.Spec.ID)
		}
		free := n.FreeReserved().Sub(vm.Requested).UtilizationL1(n.Spec.Capacity)
		if !found || free < bestFree {
			best, bestFree, found = n.Spec.ID, free, true
		}
	}
	if found {
		recordScored(ex, feasibleIDs, best)
		return best, true
	}
	// No node passes the safety gate: better an imperfect placement than
	// none (the relocation policies clean up afterwards). The fallback's
	// evidence is appended after the gate rejections above, so a trace shows
	// both phases of the decision.
	return BestFit{}.Place(vm, nodes, ex)
}

// Name implements PlacementPolicy.
func (PercentileFitPlacement) Name() string { return "percentile-fit" }

// DefaultTrendSlope is the utilization slope (1/second) below which a load
// is considered "already falling": roughly 3 percentage points per standard
// 3-second monitoring period.
const DefaultTrendSlope = 0.01

// TrendAwareRelocation wraps overload relocation with trend gating:
//
//   - a source whose fresh utilization trend is already falling steeper
//     than MinSlope is left alone — the spike is resolving itself and
//     migrating VMs off it would pay the migration cost for nothing;
//   - receivers whose fresh trend is rising steeper than MinSlope, or whose
//     p95 utilization already sits above the overload threshold, are
//     excluded — relocating onto a node that is itself heating up just
//     moves the anomaly.
//
// With thin or stale histories both gates disarm and the policy behaves
// exactly like OverloadRelocation.
type TrendAwareRelocation struct {
	Thresholds Thresholds
	// MinSlope is the |slope| (1/second) that counts as a real trend
	// (DefaultTrendSlope when zero).
	MinSlope float64
}

func (p TrendAwareRelocation) minSlope() float64 {
	if p.MinSlope > 0 {
		return p.MinSlope
	}
	return DefaultTrendSlope
}

// SkipAnomaly implements SkipsAnomaly: a source whose fresh trend is
// already falling needs no action.
func (p TrendAwareRelocation) SkipAnomaly(src view.Node) bool {
	return src.Stats.Fresh && src.Stats.Trend <= -p.minSlope()
}

// Relocate implements RelocationPolicy.
func (p TrendAwareRelocation) Relocate(src view.Node, srcVMs []types.VMStatus, others []view.Node, ex *Explain) []Move {
	th := p.Thresholds
	if th.Overload == 0 {
		th = DefaultThresholds()
	}
	slope := p.minSlope()
	if src.Stats.Fresh && src.Stats.Trend <= -slope {
		return nil // load already falling: let the spike drain on its own
	}
	kept := make([]view.Node, 0, len(others))
	for _, n := range others {
		if n.Stats.Fresh && (n.Stats.Trend >= slope || n.Stats.P95 > th.Overload) {
			ex.Reject(string(n.Spec.ID), "receiver-trend-hot")
			continue
		}
		kept = append(kept, n)
	}
	return OverloadRelocation{Thresholds: th}.Relocate(src, srcVMs, kept, ex)
}

// Name implements RelocationPolicy.
func (TrendAwareRelocation) Name() string { return "trend-relocation" }

// TrendAwareUnderload is the symmetric trend gate for the underload side:
//
//   - a source whose fresh utilization trend is rising steeper than MinSlope
//     is left alone — the load is coming back, and draining it now just
//     re-triggers the empty-receiver oscillation from the other end (the
//     node would be refilled or re-woken moments after it was emptied);
//   - receivers whose fresh p95 utilization already sits above the overload
//     threshold are excluded — consolidating onto a historically hot node
//     converts an underload event into an overload one.
//
// With thin or stale histories both gates disarm and the policy behaves
// exactly like UnderloadRelocation.
type TrendAwareUnderload struct {
	Thresholds Thresholds
	// MinSlope is the |slope| (1/second) that counts as a real trend
	// (DefaultTrendSlope when zero).
	MinSlope float64
}

func (p TrendAwareUnderload) minSlope() float64 {
	if p.MinSlope > 0 {
		return p.MinSlope
	}
	return DefaultTrendSlope
}

// SkipAnomaly implements SkipsAnomaly: a source whose fresh trend is rising
// back needs no draining — and, in particular, no woken capacity to drain
// into.
func (p TrendAwareUnderload) SkipAnomaly(src view.Node) bool {
	return src.Stats.Fresh && src.Stats.Trend >= p.minSlope()
}

// Relocate implements RelocationPolicy.
func (p TrendAwareUnderload) Relocate(src view.Node, srcVMs []types.VMStatus, others []view.Node, ex *Explain) []Move {
	th := p.Thresholds
	if th.Overload == 0 {
		th = DefaultThresholds()
	}
	if p.SkipAnomaly(src) {
		return nil // load rising back: draining would oscillate
	}
	kept := make([]view.Node, 0, len(others))
	for _, n := range others {
		if n.Stats.Fresh && n.Stats.P95 > th.Overload {
			ex.Reject(string(n.Spec.ID), "receiver-p95-hot")
			continue
		}
		kept = append(kept, n)
	}
	return UnderloadRelocation{Thresholds: th}.Relocate(src, srcVMs, kept, ex)
}

// Name implements RelocationPolicy.
func (TrendAwareUnderload) Name() string { return "trend-underload" }
