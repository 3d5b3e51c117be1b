package consolidation

import "snooze/internal/types"

// LiveNode is one schedulable host of a running system: its capacity and the
// sum of every reservation currently held on it — running VMs, VMs mid-start
// or suspended, and placements still in flight.
type LiveNode struct {
	Spec     types.NodeSpec
	Reserved types.ResourceVector
}

// LiveVM is one running VM of a running system: its spec (Requested is the
// reservation), the node hosting it and the demand it is priced at.
type LiveVM struct {
	Spec   types.VMSpec
	Node   types.NodeID
	Demand types.ResourceVector
}

// BuildProblem turns live state into a packing problem, the current placement
// and the sized VM specs Plan orders migrations with. It is the one place a
// Problem is built from a running system, because the executor's admission
// rule has to be matched exactly: a hypervisor admits a migration on
// reservations, not on usage.
//
//   - Each VM is sized at the componentwise max of its reservation and its
//     demand: a plan that packs by usage below the reservation is refused at
//     the destination, while the demand keeps a hot VM from being packed as
//     if idle.
//   - Each node offers its capacity minus the reservations the plan cannot
//     move (everything in Reserved that is not one of the listed VMs), so the
//     solver never plans into room a resident already holds.
//
// VMs whose node is not listed are left out (their host is mid-transition).
func BuildProblem(nodes []LiveNode, vms []LiveVM) (Problem, types.Placement, map[types.VMID]types.VMSpec) {
	movable := make(map[types.NodeID]types.ResourceVector, len(nodes))
	for _, n := range nodes {
		movable[n.Spec.ID] = types.ResourceVector{}
	}
	var problem Problem
	current := make(types.Placement, len(vms))
	specs := make(map[types.VMID]types.VMSpec, len(vms))
	for _, vm := range vms {
		held, listed := movable[vm.Node]
		if !listed {
			continue
		}
		movable[vm.Node] = held.Add(vm.Spec.Requested)
		spec := vm.Spec
		spec.Requested = spec.Requested.Max(vm.Demand)
		problem.VMs = append(problem.VMs, spec)
		current[spec.ID] = vm.Node
		specs[spec.ID] = spec
	}
	var zero types.ResourceVector
	for _, n := range nodes {
		spec := n.Spec
		pinned := n.Reserved.Sub(movable[spec.ID]).Max(zero)
		spec.Capacity = spec.Capacity.Sub(pinned).Max(zero)
		problem.Nodes = append(problem.Nodes, spec)
	}
	return problem, current, specs
}
