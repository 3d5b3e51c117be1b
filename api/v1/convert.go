package apiv1

// Conversions between the internal domain types and the versioned DTOs,
// plus the dry-run consolidation planner the backend runs over the []VM/[]Node
// it gathered.

import (
	"fmt"
	"time"

	"snooze/internal/consolidation"
	"snooze/internal/metrics"
	"snooze/internal/protocol"
	"snooze/internal/scheduling/view"
	"snooze/internal/telemetry"
	"snooze/internal/types"
)

// FromResourceVector converts an internal resource vector to the wire form.
func FromResourceVector(r types.ResourceVector) Resources {
	return Resources{CPU: r.CPU, MemoryMB: r.Memory, NetRxMbps: r.NetRx, NetTxMbps: r.NetTx}
}

// ToResourceVector converts a wire resource vector to the internal form.
func ToResourceVector(r Resources) types.ResourceVector {
	return types.ResourceVector{CPU: r.CPU, Memory: r.MemoryMB, NetRx: r.NetRxMbps, NetTx: r.NetTxMbps}
}

// ToVMSpec converts a wire VM spec to the internal form.
func ToVMSpec(s VMSpec) types.VMSpec {
	return types.VMSpec{ID: types.VMID(s.ID), Requested: ToResourceVector(s.Requested), TraceID: s.TraceID}
}

// ToVMSpecs converts a submission batch.
func ToVMSpecs(specs []VMSpec) []types.VMSpec {
	out := make([]types.VMSpec, len(specs))
	for i, s := range specs {
		out[i] = ToVMSpec(s)
	}
	return out
}

// FromVMStatus converts a monitored VM; node overrides the status's own node
// field when non-empty (callers iterating per-node state know the host).
func FromVMStatus(st types.VMStatus, node types.NodeID) VM {
	if node == "" {
		node = st.Node
	}
	return VM{
		ID:        string(st.Spec.ID),
		Requested: FromResourceVector(st.Spec.Requested),
		State:     st.State.String(),
		Node:      string(node),
		Used:      FromResourceVector(st.Used),
		TraceID:   st.Spec.TraceID,
	}
}

// FromNodeStatus converts a monitored node.
func FromNodeStatus(st types.NodeStatus) Node {
	vms := make([]string, len(st.VMs))
	for i, id := range st.VMs {
		vms[i] = string(id)
	}
	return Node{
		ID:       string(st.Spec.ID),
		Capacity: FromResourceVector(st.Spec.Capacity),
		Power:    st.Power.String(),
		Used:     FromResourceVector(st.Used),
		Reserved: FromResourceVector(st.Reserved),
		VMs:      vms,
		Idle:     st.Idle,
	}
}

// FromSubmitResponse converts the hierarchy's placement outcome.
func FromSubmitResponse(resp protocol.SubmitResponse) SubmitResult {
	out := SubmitResult{Placed: make(map[string]string, len(resp.Placed))}
	for vm, node := range resp.Placed {
		out.Placed[string(vm)] = string(node)
	}
	for _, vm := range resp.Unplaced {
		out.Unplaced = append(out.Unplaced, string(vm))
	}
	return out
}

// fromSchedulingInfo converts a protocol scheduling description.
func fromSchedulingInfo(s protocol.SchedulingInfo) SchedulingInfo {
	return SchedulingInfo{
		Dispatch:      s.Dispatch,
		Placement:     s.Placement,
		Overload:      s.Overload,
		Underload:     s.Underload,
		Estimator:     s.Estimator,
		ViewHorizonNs: s.ViewHorizonNs,
	}
}

// FromTopologyResponse converts the GL's hierarchy export.
func FromTopologyResponse(resp protocol.TopologyResponse) Topology {
	top := Topology{
		GL:         resp.GL,
		GMs:        make([]TopologyGM, 0, len(resp.GMs)),
		Scheduling: fromSchedulingInfo(resp.Scheduling),
	}
	for _, gm := range resp.GMs {
		out := TopologyGM{
			ID:   string(gm.GM),
			Addr: gm.Addr,
			Summary: GroupSummary{
				Used:      FromResourceVector(gm.Summary.Used),
				Reserved:  FromResourceVector(gm.Summary.Reserved),
				Total:     FromResourceVector(gm.Summary.Total),
				ActiveLCs: gm.Summary.ActiveLCs,
				AsleepLCs: gm.Summary.AsleepLCs,
				VMs:       gm.Summary.VMs,
			},
		}
		if gm.Scheduling != nil {
			sched := fromSchedulingInfo(*gm.Scheduling)
			out.Scheduling = &sched
		}
		for _, lc := range gm.LCs {
			out.LCs = append(out.LCs, TopologyLC{
				ID:       string(lc.ID),
				Power:    lc.Power,
				VMs:      lc.VMs,
				Reserved: FromResourceVector(lc.Reserved),
				Capacity: FromResourceVector(lc.Capacity),
			})
		}
		top.GMs = append(top.GMs, out)
	}
	return top
}

// FromRegistry snapshots a metrics registry into the wire form.
func FromRegistry(r *metrics.Registry) MetricsSnapshot {
	snap := MetricsSnapshot{}
	if r == nil {
		return snap
	}
	for _, name := range r.Names() {
		if c := r.Count(name); c != 0 {
			if snap.Counters == nil {
				snap.Counters = make(map[string]int64)
			}
			snap.Counters[name] = c
		}
		if g, ok := r.Gauge(name); ok {
			if snap.Gauges == nil {
				snap.Gauges = make(map[string]float64)
			}
			snap.Gauges[name] = g
		}
		if series := r.Series(name); len(series) > 0 {
			if snap.Series == nil {
				snap.Series = make(map[string]SeriesSummary)
			}
			s := metrics.Summarize(series)
			snap.Series[name] = SeriesSummary{
				N: s.N, Mean: s.Mean, Min: s.Min, Max: s.Max,
				P50: s.P50, P95: s.P95, P99: s.P99, Stddev: s.Stddev,
			}
		}
		if h, ok := r.Histogram(name); ok && h.Count > 0 {
			if snap.Histograms == nil {
				snap.Histograms = make(map[string]Histogram)
			}
			snap.Histograms[name] = Histogram{
				Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
				Bounds: h.Bounds, Counts: h.Counts,
			}
		}
	}
	return snap
}

// ---------------------------------------------------------------------------
// Shared backend logic
// ---------------------------------------------------------------------------

// FromConsolidationCtl converts one GM's consolidation control response.
func FromConsolidationCtl(resp protocol.ConsolidationCtlResponse) ConsolidationStatus {
	st := ConsolidationStatus{
		GM:         string(resp.GM),
		Running:    resp.Running,
		InRound:    resp.InRound,
		Rounds:     resp.Rounds,
		Migrations: resp.Migrations,
		Cancels:    resp.Cancels,
		Failures:   resp.Failures,
		Budget:     resp.Budget,
		PeriodNs:   resp.PeriodNs,
	}
	if lr := resp.LastRound; lr != nil {
		st.LastRound = &ConsolidationRound{
			Round:       lr.Round,
			AtNs:        lr.AtNs,
			HostsBefore: lr.HostsBefore,
			HostsAfter:  lr.HostsAfter,
			Planned:     lr.Planned,
			Executed:    lr.Executed,
			Failed:      lr.Failed,
			Cancelled:   lr.Cancelled,
		}
	}
	return st
}

// DemandFunc prices one VM for consolidation planning (demand=p95 mode).
type DemandFunc func(vm VM) types.ResourceVector

// P95Demand builds a DemandFunc over a telemetry hub at the given
// runtime-relative instant. It prices through view.ConsolidationDemand —
// the identical chain (p95 windowed demand, snapshot fallback, never below
// the reservation) the online consolidation optimizer plans with, so both
// backends' dry runs and the online service cannot drift.
func P95Demand(hub *telemetry.Hub, now time.Duration) DemandFunc {
	b := view.Builder{Hub: hub}
	return func(vm VM) types.ResourceVector {
		return b.ConsolidationDemand(now, types.VMStatus{
			Spec: types.VMSpec{ID: types.VMID(vm.ID), Requested: ToResourceVector(vm.Requested)},
			Used: ToResourceVector(vm.Used),
		})
	}
}

// PlanConsolidation is the backend-neutral Consolidate implementation: pack
// the running VMs of vms onto the powered-on hosts of nodes with the
// requested algorithm and derive the capacity-feasible migration sequence.
// demand prices VMs when req.Demand is "p95"; it may be nil otherwise. The
// problem comes from consolidation.BuildProblem, as the optimizer's does.
func PlanConsolidation(vms []VM, nodes []Node, req ConsolidationRequest, demand DemandFunc) (ConsolidationPlan, error) {
	algoName := req.Algorithm
	if algoName == "" {
		algoName = AlgorithmACO
	}
	switch req.Demand {
	case "", DemandRequested:
		demand = nil
	case DemandP95:
		if demand == nil {
			return ConsolidationPlan{}, fmt.Errorf("%w: this backend cannot price p95 demand", ErrUnsupported)
		}
	default:
		return ConsolidationPlan{}, fmt.Errorf("%w: unknown demand mode %q (want requested|p95)", ErrInvalid, req.Demand)
	}
	var algo consolidation.Algorithm
	switch algoName {
	case AlgorithmACO:
		algo = consolidation.ACO{Config: consolidation.DefaultACOConfig()}
	case AlgorithmFFD:
		algo = consolidation.FFD{Key: consolidation.SortCPU}
	case AlgorithmOptimal:
		algo = consolidation.Exact{}
	default:
		return ConsolidationPlan{}, fmt.Errorf("%w: unknown algorithm %q (want aco|ffd|optimal)", ErrInvalid, algoName)
	}

	var hosts []consolidation.LiveNode
	for _, n := range nodes {
		if n.Power != types.PowerOn.String() {
			continue // host mid-transition; its VMs are skipped rather than planned blind
		}
		hosts = append(hosts, consolidation.LiveNode{
			Spec:     types.NodeSpec{ID: types.NodeID(n.ID), Capacity: ToResourceVector(n.Capacity)},
			Reserved: ToResourceVector(n.Reserved),
		})
	}
	var running []consolidation.LiveVM
	for _, vm := range vms {
		if vm.State != types.VMRunning.String() {
			continue
		}
		live := consolidation.LiveVM{
			Spec: types.VMSpec{ID: types.VMID(vm.ID), Requested: ToResourceVector(vm.Requested)},
			Node: types.NodeID(vm.Node),
		}
		if demand != nil {
			live.Demand = demand(vm)
		}
		running = append(running, live)
	}
	problem, current, specs := consolidation.BuildProblem(hosts, running)

	plan := ConsolidationPlan{
		Algorithm:   algoName,
		VMs:         len(problem.VMs),
		HostsTotal:  len(problem.Nodes),
		HostsBefore: current.NodesUsed(),
	}
	if len(problem.VMs) == 0 {
		return plan, nil
	}
	result, err := algo.Solve(problem)
	if err != nil {
		return ConsolidationPlan{}, fmt.Errorf("consolidation (%s): %w", algoName, err)
	}
	plan.HostsAfter = result.HostsUsed
	plan.Optimal = result.Optimal
	plan.Cycles = result.Cycles
	for _, m := range consolidation.Plan(current, result.Placement, specs, problem.Nodes) {
		plan.Migrations = append(plan.Migrations, Migration{VM: string(m.VM), From: string(m.From), To: string(m.To)})
	}
	return plan, nil
}
