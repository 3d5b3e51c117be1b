// Package consolidation implements the paper's second contribution: VM
// consolidation algorithms that pack VMs onto as few hosts as possible so
// that freed hosts can be suspended (Section III).
//
// Three solvers are provided, matching the paper's evaluation (Section
// III-B):
//
//   - ACO: the novel Ant Colony Optimization consolidation algorithm
//     (ref [10]), a Max-Min Ant System over a VM×host pheromone matrix, run
//     as one colony or several exchanging ones (ACO.Colonies).
//   - FFD: the First-Fit Decreasing heuristic baseline, including the
//     single-dimension presort the paper criticizes plus L1/L2 vector
//     variants.
//   - Exact: a branch-and-bound vector bin-packing solver standing in for
//     the paper's CPLEX runs, yielding the optimal host count on the
//     instance sizes the paper evaluated.
//
// BuildProblem is the one way a Problem is derived from a running system (the
// GMs' online optimizer and the api/v1 dry run both call it); Plan orders the
// migrations that take the system from its current placement to a solver's.
package consolidation

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"snooze/internal/types"
)

// Problem is one consolidation instance: VM demands and the host inventory.
type Problem struct {
	// VMs carry their demand estimate in Requested.
	VMs []types.VMSpec
	// Nodes is the host inventory, assumed available and empty (BuildProblem
	// subtracts what a live system's plan cannot move).
	Nodes []types.NodeSpec
}

// TotalDemand sums VM demand.
func (p Problem) TotalDemand() types.ResourceVector {
	var sum types.ResourceVector
	for _, vm := range p.VMs {
		sum = sum.Add(vm.Requested)
	}
	return sum
}

// LowerBound returns the classic per-dimension LP lower bound on the number
// of hosts: max over dimensions of ceil(total demand / per-host capacity),
// assuming homogeneous hosts (heterogeneous inventories use the largest
// host, keeping the bound valid).
func (p Problem) LowerBound() int {
	if len(p.VMs) == 0 {
		return 0
	}
	var capMax types.ResourceVector
	for _, n := range p.Nodes {
		capMax = capMax.Max(n.Capacity)
	}
	total := p.TotalDemand()
	lb := 1
	for d := 0; d < 4; d++ {
		c := capMax.Components()[d]
		t := total.Components()[d]
		if c <= 0 {
			continue
		}
		if b := int(math.Ceil(t/c - 1e-9)); b > lb {
			lb = b
		}
	}
	return lb
}

// Result is a solver outcome.
type Result struct {
	Placement types.Placement
	HostsUsed int
	// Optimal is set by the exact solver when it proved optimality.
	Optimal bool
	// Cycles reports solver-specific iteration counts (ACO cycles, B&B
	// nodes explored).
	Cycles int
}

// Algorithm is a consolidation solver.
type Algorithm interface {
	Solve(p Problem) (Result, error)
	Name() string
}

// Errors shared by solvers.
var (
	// ErrInfeasible means some VM fits in no host.
	ErrInfeasible = errors.New("consolidation: VM fits in no host")
)

// Validate checks that placement assigns every VM of p to a node of p and
// respects capacity on every dimension.
func Validate(p Problem, placement types.Placement) error {
	nodeCap := make(map[types.NodeID]types.ResourceVector, len(p.Nodes))
	for _, n := range p.Nodes {
		nodeCap[n.ID] = n.Capacity
	}
	load := make(map[types.NodeID]types.ResourceVector)
	for _, vm := range p.VMs {
		node, ok := placement[vm.ID]
		if !ok {
			return fmt.Errorf("consolidation: VM %s unplaced", vm.ID)
		}
		capv, ok := nodeCap[node]
		if !ok {
			return fmt.Errorf("consolidation: VM %s placed on unknown node %s", vm.ID, node)
		}
		l := load[node].Add(vm.Requested)
		if !l.FitsIn(capv) {
			return fmt.Errorf("consolidation: node %s overcommitted: %v > %v", node, l, capv)
		}
		load[node] = l
	}
	return nil
}

// AvgHostUtilization returns the mean L1 utilization over hosts that carry
// at least one VM — the "average host utilization" metric of Section III-B.
func AvgHostUtilization(p Problem, placement types.Placement) float64 {
	nodeCap := make(map[types.NodeID]types.ResourceVector, len(p.Nodes))
	for _, n := range p.Nodes {
		nodeCap[n.ID] = n.Capacity
	}
	load := make(map[types.NodeID]types.ResourceVector)
	for _, vm := range p.VMs {
		if node, ok := placement[vm.ID]; ok {
			load[node] = load[node].Add(vm.Requested)
		}
	}
	if len(load) == 0 {
		return 0
	}
	var sum float64
	for node, l := range load {
		sum += l.UtilizationL1(nodeCap[node])
	}
	return sum / float64(len(load))
}

// sortedNodes returns the host inventory in deterministic ID order.
func sortedNodes(p Problem) []types.NodeSpec {
	nodes := append([]types.NodeSpec(nil), p.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes
}

func fitsAny(vm types.VMSpec, nodes []types.NodeSpec) bool {
	for _, n := range nodes {
		if vm.Requested.FitsIn(n.Capacity) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// FFD baseline
// ---------------------------------------------------------------------------

// SortKey selects the FFD presort dimension.
type SortKey int

// FFD presort keys.
const (
	// SortCPU presorts by CPU only — the single-dimension variant the
	// paper criticizes ("presorting the VMs according to a single
	// dimension (e.g. CPU)", Section I).
	SortCPU SortKey = iota
	// SortL1 presorts by the L1 norm of the demand vector normalized by
	// host capacity.
	SortL1
	// SortL2 presorts by the normalized L2 norm.
	SortL2
)

// String implements fmt.Stringer.
func (k SortKey) String() string {
	switch k {
	case SortCPU:
		return "cpu"
	case SortL1:
		return "l1"
	case SortL2:
		return "l2"
	default:
		return fmt.Sprintf("SortKey(%d)", int(k))
	}
}

// FFD is First-Fit Decreasing over the configured sort key.
type FFD struct {
	Key SortKey
}

// Name implements Algorithm.
func (f FFD) Name() string { return "ffd-" + f.Key.String() }

// Solve implements Algorithm.
func (f FFD) Solve(p Problem) (Result, error) {
	nodes := sortedNodes(p)
	var ref types.ResourceVector
	for _, n := range nodes {
		ref = ref.Max(n.Capacity)
	}
	key := func(vm types.VMSpec) float64 {
		switch f.Key {
		case SortL1:
			return vm.Requested.Divide(ref).Norm1()
		case SortL2:
			return vm.Requested.Divide(ref).Norm2()
		default:
			return vm.Requested.CPU
		}
	}
	vms := append([]types.VMSpec(nil), p.VMs...)
	sort.Slice(vms, func(i, j int) bool {
		ki, kj := key(vms[i]), key(vms[j])
		if ki != kj {
			return ki > kj
		}
		return vms[i].ID < vms[j].ID
	})
	placement := make(types.Placement, len(vms))
	residual := make([]types.ResourceVector, len(nodes))
	for i, n := range nodes {
		residual[i] = n.Capacity
	}
	for _, vm := range vms {
		placed := false
		for i := range nodes {
			if vm.Requested.FitsIn(residual[i]) {
				placement[vm.ID] = nodes[i].ID
				residual[i] = residual[i].Sub(vm.Requested)
				placed = true
				break
			}
		}
		if !placed {
			return Result{}, fmt.Errorf("%w: %s", ErrInfeasible, vm.ID)
		}
	}
	return Result{Placement: placement, HostsUsed: placement.NodesUsed()}, nil
}

// ---------------------------------------------------------------------------
// Exact branch-and-bound (CPLEX substitute)
// ---------------------------------------------------------------------------

// Exact is a branch-and-bound vector bin-packing solver. It assumes a
// homogeneous host inventory (which the paper's instances and this repo's
// generated instances satisfy) and exploits bin symmetry: a VM may go into
// any currently used bin or exactly one fresh bin.
type Exact struct {
	// MaxNodes caps the number of search nodes explored; 0 means 50M.
	// When the cap is hit, the best placement found so far is returned
	// with Optimal=false.
	MaxNodes int
}

// Name implements Algorithm.
func (Exact) Name() string { return "exact-bb" }

// Solve implements Algorithm.
func (e Exact) Solve(p Problem) (Result, error) {
	nodes := sortedNodes(p)
	if len(p.VMs) == 0 {
		return Result{Placement: types.Placement{}, Optimal: true}, nil
	}
	if len(nodes) == 0 {
		return Result{}, fmt.Errorf("%w: no hosts", ErrInfeasible)
	}
	capv := nodes[0].Capacity
	for _, vm := range p.VMs {
		if !vm.Requested.FitsIn(capv) {
			return Result{}, fmt.Errorf("%w: %s", ErrInfeasible, vm.ID)
		}
	}
	// Sort VMs decreasing (stronger pruning early).
	vms := append([]types.VMSpec(nil), p.VMs...)
	sort.Slice(vms, func(i, j int) bool {
		ki, kj := vms[i].Requested.Divide(capv).Norm1(), vms[j].Requested.Divide(capv).Norm1()
		if ki != kj {
			return ki > kj
		}
		return vms[i].ID < vms[j].ID
	})

	maxNodes := e.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 50_000_000
	}
	lb := p.LowerBound()

	// Start from the best FFD variant as the incumbent.
	bestUsed := len(nodes) + 1
	var bestAssign []int
	for _, k := range []SortKey{SortCPU, SortL1, SortL2} {
		if r, err := (FFD{Key: k}).Solve(p); err == nil && r.HostsUsed < bestUsed {
			bestUsed = r.HostsUsed
			bestAssign = make([]int, len(vms))
			idx := make(map[types.NodeID]int, len(nodes))
			next := 0
			for i, vm := range vms {
				nid := r.Placement[vm.ID]
				j, ok := idx[nid]
				if !ok {
					j = next
					idx[nid] = j
					next++
				}
				bestAssign[i] = j
			}
		}
	}

	assign := make([]int, len(vms))
	residual := make([]types.ResourceVector, len(vms)) // at most one bin per VM
	for i := range residual {
		residual[i] = capv
	}
	explored := 0
	proved := true

	var rec func(i, used int)
	rec = func(i, used int) {
		if explored >= maxNodes {
			proved = false
			return
		}
		explored++
		if used >= bestUsed {
			return // bound
		}
		if i == len(vms) {
			bestUsed = used
			bestAssign = append(bestAssign[:0:0], assign...)
			return
		}
		vm := vms[i]
		// Try each open bin, then one fresh bin (symmetry breaking).
		limit := used + 1
		if limit > len(vms) {
			limit = len(vms)
		}
		for b := 0; b < limit; b++ {
			if !vm.Requested.FitsIn(residual[b]) {
				continue
			}
			newUsed := used
			if b == used {
				newUsed = used + 1
			}
			if newUsed >= bestUsed {
				continue
			}
			residual[b] = residual[b].Sub(vm.Requested)
			assign[i] = b
			rec(i+1, newUsed)
			residual[b] = residual[b].Add(vm.Requested)
			if bestUsed == lb {
				return // provably optimal already
			}
		}
	}
	rec(0, 0)

	if bestAssign == nil {
		return Result{}, fmt.Errorf("%w: no feasible packing found", ErrInfeasible)
	}
	if bestUsed > len(nodes) {
		return Result{}, fmt.Errorf("%w: needs %d hosts, have %d", ErrInfeasible, bestUsed, len(nodes))
	}
	placement := make(types.Placement, len(vms))
	for i, vm := range vms {
		placement[vm.ID] = nodes[bestAssign[i]].ID
	}
	return Result{
		Placement: placement,
		HostsUsed: placement.NodesUsed(),
		Optimal:   proved,
		Cycles:    explored,
	}, nil
}
