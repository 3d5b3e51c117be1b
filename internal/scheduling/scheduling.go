// Package scheduling implements the two-level VM scheduling policies of
// Section II-C. At the Group Leader, dispatching policies shortlist
// candidate GMs from (inexact) group summaries; the GL then performs a
// linear search over the candidates. At the Group Manager, placement
// policies choose a Local Controller for each incoming VM, and relocation
// policies react to the overload/underload events the GM's detector raises
// from its LCs' monitoring reports.
//
// All policies consume capacity views (internal/scheduling/view): the
// point-in-time snapshot enriched with windowed utilization statistics from
// the telemetry store. The classic policies read only the snapshot half;
// the telemetry-aware ones (telemetry_policies.go) additionally use the
// percentile and trend statistics, falling back to snapshot behaviour when
// a view's history is thin or stale.
package scheduling

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"snooze/internal/scheduling/view"
	"snooze/internal/types"
)

// ---------------------------------------------------------------------------
// GL-level dispatching
// ---------------------------------------------------------------------------

// DispatchPolicy orders GMs as placement candidates for a VM request.
// As Section II-C notes, "summary information is not sufficient to take
// exact dispatching decisions... Consequently, a list of candidate GMs is
// provided by the dispatching policies" — the GL linearly probes the list.
type DispatchPolicy interface {
	// Candidates returns GM IDs to probe, best first. Groups whose free
	// capacity cannot possibly hold the VM are filtered out (they may still
	// fail the probe: free capacity may be fragmented across LCs). A non-nil
	// ex collects per-group consideration evidence (nil disables). The GL
	// offers groups sorted by GM, which spares order-dependent policies a
	// copy and a sort; unsorted input gives the same answer at that cost.
	Candidates(vm types.VMSpec, groups []view.Group, ex *Explain) []types.GroupManagerID
	Name() string
}

func feasible(vm types.VMSpec, g view.Group) bool {
	return g.ActiveLCs+g.AsleepLCs > 0 && vm.Requested.FitsIn(g.Free())
}

// sortedByGM returns groups in GM order: groups itself when already sorted
// (as the GL offers them), else a sorted copy.
func sortedByGM(groups []view.Group) []view.Group {
	for i := 1; i < len(groups); i++ {
		if groups[i].GM < groups[i-1].GM {
			out := slices.Clone(groups)
			slices.SortFunc(out, func(a, b view.Group) int { return cmp.Compare(a.GM, b.GM) })
			return out
		}
	}
	return groups
}

// RoundRobinDispatch cycles through GMs across calls, spreading load
// uniformly (the paper's example policy).
type RoundRobinDispatch struct {
	next int
}

// Candidates implements DispatchPolicy.
func (r *RoundRobinDispatch) Candidates(vm types.VMSpec, groups []view.Group, ex *Explain) []types.GroupManagerID {
	sorted := sortedByGM(groups)
	n := len(sorted)
	out := make([]types.GroupManagerID, 0, n)
	for i := 0; i < n; i++ {
		g := sorted[(r.next+i)%n]
		if feasible(vm, g) {
			out = append(out, g.GM)
			ex.Shortlist(string(g.GM))
		} else {
			ex.Reject(string(g.GM), ReasonInfeasible)
		}
	}
	if n > 0 {
		r.next = (r.next + 1) % n
	}
	return out
}

// Name implements DispatchPolicy.
func (r *RoundRobinDispatch) Name() string { return "round-robin" }

// LeastLoadedDispatch prefers the GM with the most free capacity (L1 norm of
// the free vector normalized by total), the paper's "load balanced" option.
type LeastLoadedDispatch struct{}

// Candidates implements DispatchPolicy.
func (LeastLoadedDispatch) Candidates(vm types.VMSpec, groups []view.Group, ex *Explain) []types.GroupManagerID {
	type scored struct {
		id   types.GroupManagerID
		free float64
	}
	var sc []scored
	for _, g := range groups {
		if !feasible(vm, g) {
			ex.Reject(string(g.GM), ReasonInfeasible)
			continue
		}
		sc = append(sc, scored{id: g.GM, free: g.Free().UtilizationL1(g.Total)})
	}
	slices.SortFunc(sc, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.free, a.free), cmp.Compare(a.id, b.id))
	})
	out := make([]types.GroupManagerID, len(sc))
	for i, s := range sc {
		out[i] = s.id
		ex.Shortlist(string(s.id))
	}
	return out
}

// Name implements DispatchPolicy.
func (LeastLoadedDispatch) Name() string { return "least-loaded" }

// MostLoadedDispatch prefers the fullest GM that can still hold the VM —
// the energy-friendly choice, concentrating load so whole groups stay idle.
type MostLoadedDispatch struct{}

// Candidates implements DispatchPolicy.
func (MostLoadedDispatch) Candidates(vm types.VMSpec, groups []view.Group, ex *Explain) []types.GroupManagerID {
	type scored struct {
		id   types.GroupManagerID
		free float64
	}
	var sc []scored
	for _, g := range groups {
		if !feasible(vm, g) {
			ex.Reject(string(g.GM), ReasonInfeasible)
			continue
		}
		sc = append(sc, scored{id: g.GM, free: g.Free().UtilizationL1(g.Total)})
	}
	slices.SortFunc(sc, func(a, b scored) int {
		return cmp.Or(cmp.Compare(a.free, b.free), cmp.Compare(a.id, b.id))
	})
	out := make([]types.GroupManagerID, len(sc))
	for i, s := range sc {
		out[i] = s.id
		ex.Shortlist(string(s.id))
	}
	return out
}

// Name implements DispatchPolicy.
func (MostLoadedDispatch) Name() string { return "most-loaded" }

// ---------------------------------------------------------------------------
// GM-level placement
// ---------------------------------------------------------------------------

// PlacementPolicy chooses an LC for one VM. Nodes are offered with their
// current reservations; only PowerOn nodes are offered. The GM offers them in
// ID order, which spares the policies a copy and a sort; any other order
// gives the same choices, at that cost.
type PlacementPolicy interface {
	// Place returns the chosen node ID, or false if no active node fits. A
	// non-nil ex collects per-node rejection evidence (nil disables).
	Place(vm types.VMSpec, nodes []view.Node, ex *Explain) (types.NodeID, bool)
	Name() string
}

func fits(vm types.VMSpec, n view.Node) bool {
	return n.Power == types.PowerOn && vm.Requested.FitsIn(n.FreeReserved())
}

// unfitReason classifies why fits failed for evidence recording.
func unfitReason(n view.Node) string {
	if n.Power != types.PowerOn {
		return ReasonPoweredOff
	}
	return ReasonNoFit
}

// sortedByID returns nodes in ID order for deterministic iteration: nodes
// itself when already sorted (as the GM offers them), else a sorted copy.
func sortedByID(nodes []view.Node) []view.Node {
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Spec.ID < nodes[i-1].Spec.ID {
			out := slices.Clone(nodes)
			slices.SortFunc(out, func(a, b view.Node) int { return cmp.Compare(a.Spec.ID, b.Spec.ID) })
			return out
		}
	}
	return nodes
}

// FirstFit places on the first node (by ID) with room — Eucalyptus-style
// "greedy" (Section IV).
type FirstFit struct{}

// Place implements PlacementPolicy.
func (FirstFit) Place(vm types.VMSpec, nodes []view.Node, ex *Explain) (types.NodeID, bool) {
	for _, n := range sortedByID(nodes) {
		if fits(vm, n) {
			ex.Choose(string(n.Spec.ID))
			return n.Spec.ID, true
		}
		ex.Reject(string(n.Spec.ID), unfitReason(n))
	}
	return "", false
}

// Name implements PlacementPolicy.
func (FirstFit) Name() string { return "first-fit" }

// BestFit places on the feasible node with the least free capacity left
// after placement (tightest fit → better packing).
type BestFit struct{}

// Place implements PlacementPolicy.
func (BestFit) Place(vm types.VMSpec, nodes []view.Node, ex *Explain) (types.NodeID, bool) {
	best, found := types.NodeID(""), false
	bestFree := 0.0
	var feasibleIDs []types.NodeID
	for _, n := range sortedByID(nodes) {
		if !fits(vm, n) {
			ex.Reject(string(n.Spec.ID), unfitReason(n))
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
	recordScored(ex, feasibleIDs, best)
	return best, found
}

// Name implements PlacementPolicy.
func (BestFit) Name() string { return "best-fit" }

// WorstFit places on the feasible node with the most free capacity —
// the load-balancing choice that minimizes overload risk.
type WorstFit struct{}

// Place implements PlacementPolicy.
func (WorstFit) Place(vm types.VMSpec, nodes []view.Node, ex *Explain) (types.NodeID, bool) {
	best, found := types.NodeID(""), false
	bestFree := 0.0
	var feasibleIDs []types.NodeID
	for _, n := range sortedByID(nodes) {
		if !fits(vm, n) {
			ex.Reject(string(n.Spec.ID), unfitReason(n))
			continue
		}
		if ex != nil {
			feasibleIDs = append(feasibleIDs, n.Spec.ID)
		}
		free := n.FreeReserved().Sub(vm.Requested).UtilizationL1(n.Spec.Capacity)
		if !found || free > bestFree {
			best, bestFree, found = n.Spec.ID, free, true
		}
	}
	recordScored(ex, feasibleIDs, best)
	return best, found
}

// Name implements PlacementPolicy.
func (WorstFit) Name() string { return "worst-fit" }

// RoundRobinPlacement cycles through LCs across calls (the paper's example
// placement policy alongside first-fit).
type RoundRobinPlacement struct {
	next int
}

// Place implements PlacementPolicy.
func (r *RoundRobinPlacement) Place(vm types.VMSpec, nodes []view.Node, ex *Explain) (types.NodeID, bool) {
	sorted := sortedByID(nodes)
	n := len(sorted)
	for i := 0; i < n; i++ {
		cand := sorted[(r.next+i)%n]
		if fits(vm, cand) {
			r.next = (r.next + i + 1) % n
			ex.Choose(string(cand.Spec.ID))
			return cand.Spec.ID, true
		}
		ex.Reject(string(cand.Spec.ID), unfitReason(cand))
	}
	return "", false
}

// Name implements PlacementPolicy.
func (r *RoundRobinPlacement) Name() string { return "round-robin" }

// ---------------------------------------------------------------------------
// Relocation (overload / underload)
// ---------------------------------------------------------------------------

// Thresholds are a relocation policy's restore targets: no move may push a
// receiver above Overload, and overload relocation moves VMs until the
// source is back under it. They classify nothing: the GM's telemetry
// detector (telemetry.Thresholds) is the one overload/underload detector,
// and a deployment normally gives both the same values.
type Thresholds struct {
	// Overload is the bound on measured utilization, as a fraction of
	// capacity on any dimension.
	Overload float64
	// Underload is the underload bound of the same scale; the detector's
	// counterpart decides when underload relocation runs.
	Underload float64
}

// DefaultThresholds matches the common 90%/20% split of the adaptive
// threshold literature the paper cites ([8]).
func DefaultThresholds() Thresholds { return Thresholds{Overload: 0.9, Underload: 0.2} }

// Move pairs a VM with a relocation destination.
type Move struct {
	VM   types.VMID
	From types.NodeID
	To   types.NodeID
}

// RelocationPolicy computes moves in response to an anomaly on one node.
type RelocationPolicy interface {
	// Relocate returns moves for VMs on the anomalous node `src`;
	// `srcVMs` are its current VMs, `others` the GM's other active nodes.
	// A non-nil ex records each planned move as a chosen "vm→node"
	// candidate (nil disables).
	Relocate(src view.Node, srcVMs []types.VMStatus, others []view.Node, ex *Explain) []Move
	Name() string
}

// recordScored marks the feasible candidates of a scored placement pass:
// the winner as chosen, the rest as outscored.
func recordScored(ex *Explain, feasible []types.NodeID, chosen types.NodeID) {
	if ex == nil {
		return
	}
	for _, id := range feasible {
		if id == chosen {
			ex.Choose(string(id))
		} else {
			ex.Reject(string(id), ReasonOutscored)
		}
	}
}

// recordMoves records planned relocation moves as chosen candidates.
func recordMoves(ex *Explain, moves []Move) {
	if ex == nil {
		return
	}
	for _, mv := range moves {
		ex.Choose(string(mv.VM) + "→" + string(mv.To))
	}
}

// SkipsAnomaly is an optional RelocationPolicy extension: a policy that can
// judge an anomaly to be resolving on its own implements it, so the caller
// (the GM) can distinguish deliberate inaction from "no feasible moves" —
// only the latter should escalate (e.g. wake sleeping capacity on an
// unresolvable overload).
type SkipsAnomaly interface {
	// SkipAnomaly reports that the anomaly on src needs no action.
	SkipAnomaly(src view.Node) bool
}

// OverloadRelocation moves the smallest set of VMs (largest-first by measured
// demand) needed to bring the source back under the overload threshold; each
// is sent to the least-loaded node with room ("VMs must be relocated to a
// more lightly loaded node in order to mitigate performance degradation").
type OverloadRelocation struct {
	Thresholds Thresholds
}

// Relocate implements RelocationPolicy.
func (p OverloadRelocation) Relocate(src view.Node, srcVMs []types.VMStatus, others []view.Node, ex *Explain) []Move {
	th := p.Thresholds
	if th.Overload == 0 {
		th = DefaultThresholds()
	}
	// Candidate receivers: active nodes, least loaded first.
	recv := filterActive(others, src.Spec.ID)
	sort.Slice(recv, func(i, j int) bool {
		ui := recv[i].Used.UtilizationL1(recv[i].Spec.Capacity)
		uj := recv[j].Used.UtilizationL1(recv[j].Spec.Capacity)
		if ui != uj {
			return ui < uj
		}
		return recv[i].Spec.ID < recv[j].Spec.ID
	})
	// Move the most demanding VMs first: fewest migrations to relieve the
	// hot spot.
	vms := append([]types.VMStatus(nil), srcVMs...)
	sort.Slice(vms, func(i, j int) bool {
		ni, nj := vms[i].Used.Norm1(), vms[j].Used.Norm1()
		if ni != nj {
			return ni > nj
		}
		return vms[i].Spec.ID < vms[j].Spec.ID
	})
	used := src.Used
	reserved := src.Reserved
	var moves []Move
	for _, vm := range vms {
		if used.Divide(src.Spec.Capacity).NormInf() <= th.Overload {
			break
		}
		if vm.State != types.VMRunning {
			continue
		}
		for i := range recv {
			if !vm.Spec.Requested.FitsIn(recv[i].FreeReserved()) {
				continue
			}
			// Receiving this VM must not overload the receiver.
			after := recv[i].Used.Add(vm.Used).Divide(recv[i].Spec.Capacity)
			if after.NormInf() > th.Overload {
				continue
			}
			moves = append(moves, Move{VM: vm.Spec.ID, From: src.Spec.ID, To: recv[i].Spec.ID})
			recv[i].Used = recv[i].Used.Add(vm.Used)
			recv[i].Reserved = recv[i].Reserved.Add(vm.Spec.Requested)
			used = used.Sub(vm.Used).Max(types.ResourceVector{})
			reserved = reserved.Sub(vm.Spec.Requested).Max(types.ResourceVector{})
			break
		}
	}
	recordMoves(ex, moves)
	return moves
}

// Name implements RelocationPolicy.
func (OverloadRelocation) Name() string { return "overload-relocation" }

// UnderloadRelocation tries to empty an underutilized node by moving ALL its
// VMs to moderately loaded nodes ("move away VMs to moderately loaded LCs in
// order to create enough idle-time to transition the underutilized LCs into
// a lower power state"). Returns nil unless every VM can be rehomed —
// partially draining a node saves no energy.
type UnderloadRelocation struct {
	Thresholds Thresholds
}

// Relocate implements RelocationPolicy.
func (p UnderloadRelocation) Relocate(src view.Node, srcVMs []types.VMStatus, others []view.Node, ex *Explain) []Move {
	th := p.Thresholds
	if th.Overload == 0 {
		th = DefaultThresholds()
	}
	// Receivers: prefer the most loaded nodes that still have room, so
	// moderately loaded nodes fill up and empty nodes stay empty. Empty
	// nodes are not receivers at all: draining an underloaded node into an
	// empty one just relocates the underload (and oscillates when the pair
	// keeps trading places).
	recv := filterActive(others, src.Spec.ID)
	kept := recv[:0]
	for _, n := range recv {
		if len(n.VMs) == 0 && n.Used.Zero() {
			continue
		}
		kept = append(kept, n)
	}
	recv = kept
	sort.Slice(recv, func(i, j int) bool {
		ui := recv[i].Used.UtilizationL1(recv[i].Spec.Capacity)
		uj := recv[j].Used.UtilizationL1(recv[j].Spec.Capacity)
		if ui != uj {
			return ui > uj
		}
		return recv[i].Spec.ID < recv[j].Spec.ID
	})
	vms := append([]types.VMStatus(nil), srcVMs...)
	sort.Slice(vms, func(i, j int) bool { // biggest first: hardest to fit
		ni, nj := vms[i].Spec.Requested.Norm1(), vms[j].Spec.Requested.Norm1()
		if ni != nj {
			return ni > nj
		}
		return vms[i].Spec.ID < vms[j].Spec.ID
	})
	var moves []Move
	for _, vm := range vms {
		if vm.State != types.VMRunning {
			return nil // cannot fully drain (booting/migrating VM present)
		}
		placed := false
		for i := range recv {
			if !vm.Spec.Requested.FitsIn(recv[i].FreeReserved()) {
				continue
			}
			after := recv[i].Used.Add(vm.Used).Divide(recv[i].Spec.Capacity)
			if after.NormInf() > th.Overload {
				continue
			}
			moves = append(moves, Move{VM: vm.Spec.ID, From: src.Spec.ID, To: recv[i].Spec.ID})
			recv[i].Used = recv[i].Used.Add(vm.Used)
			recv[i].Reserved = recv[i].Reserved.Add(vm.Spec.Requested)
			placed = true
			break
		}
		if !placed {
			return nil // all-or-nothing
		}
	}
	recordMoves(ex, moves)
	return moves
}

// Name implements RelocationPolicy.
func (UnderloadRelocation) Name() string { return "underload-relocation" }

func filterActive(nodes []view.Node, exclude types.NodeID) []view.Node {
	var out []view.Node
	for _, n := range nodes {
		if n.Spec.ID == exclude || n.Power != types.PowerOn {
			continue
		}
		out = append(out, n)
	}
	return out
}

// ---------------------------------------------------------------------------
// Policy registry
// ---------------------------------------------------------------------------

// NewDispatchPolicy returns the named dispatch policy.
func NewDispatchPolicy(name string) (DispatchPolicy, error) {
	switch name {
	case "round-robin", "":
		return &RoundRobinDispatch{}, nil
	case "least-loaded":
		return LeastLoadedDispatch{}, nil
	case "most-loaded":
		return MostLoadedDispatch{}, nil
	case "p95-headroom":
		return P95HeadroomDispatch{}, nil
	default:
		return nil, fmt.Errorf("scheduling: unknown dispatch policy %q", name)
	}
}

// NewPlacementPolicy returns the named placement policy.
func NewPlacementPolicy(name string) (PlacementPolicy, error) {
	switch name {
	case "first-fit", "":
		return FirstFit{}, nil
	case "best-fit":
		return BestFit{}, nil
	case "worst-fit":
		return WorstFit{}, nil
	case "round-robin":
		return &RoundRobinPlacement{}, nil
	case "percentile-fit":
		return PercentileFitPlacement{}, nil
	default:
		return nil, fmt.Errorf("scheduling: unknown placement policy %q", name)
	}
}

// NewRelocationPolicy returns the named relocation policy. The default
// (empty) name maps to the overload policy; callers configuring the
// underload side should name it explicitly.
func NewRelocationPolicy(name string) (RelocationPolicy, error) {
	switch name {
	case "overload-relocation", "":
		return OverloadRelocation{}, nil
	case "underload-relocation":
		return UnderloadRelocation{}, nil
	case "trend-relocation":
		return TrendAwareRelocation{}, nil
	case "trend-underload":
		return TrendAwareUnderload{}, nil
	default:
		return nil, fmt.Errorf("scheduling: unknown relocation policy %q", name)
	}
}
