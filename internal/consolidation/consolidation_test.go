package consolidation

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"snooze/internal/types"
	"snooze/internal/workload"
)

func uniformProblem(seed int64, n int, kind workload.InstanceKind) Problem {
	inst := workload.NewInstance(workload.InstanceConfig{Seed: seed, VMs: n, Kind: kind, Lo: 0.05, Hi: 0.45})
	return Problem{VMs: inst.VMs, Nodes: inst.Nodes}
}

func tinyProblem() Problem {
	// 4 VMs of half a node each → optimal is 2 hosts.
	capv := types.RV(8, 16384, 1000, 1000)
	var p Problem
	for i := 0; i < 4; i++ {
		p.VMs = append(p.VMs, types.VMSpec{
			ID:        types.VMID(fmt.Sprintf("v%d", i)),
			Requested: capv.Scale(0.5),
		})
	}
	for i := 0; i < 4; i++ {
		p.Nodes = append(p.Nodes, types.NodeSpec{ID: types.NodeID(fmt.Sprintf("n%d", i)), Capacity: capv})
	}
	return p
}

func TestLowerBound(t *testing.T) {
	p := tinyProblem()
	if lb := p.LowerBound(); lb != 2 {
		t.Fatalf("lower bound: %d", lb)
	}
	if lb := (Problem{}).LowerBound(); lb != 0 {
		t.Fatalf("empty lower bound: %d", lb)
	}
	// Memory-dominant instance: bound driven by the memory dimension.
	capv := types.RV(8, 1000, 0, 0)
	p2 := Problem{
		VMs:   []types.VMSpec{{ID: "a", Requested: types.RV(1, 900, 0, 0)}, {ID: "b", Requested: types.RV(1, 900, 0, 0)}},
		Nodes: []types.NodeSpec{{ID: "n1", Capacity: capv}, {ID: "n2", Capacity: capv}},
	}
	if lb := p2.LowerBound(); lb != 2 {
		t.Fatalf("memory-driven bound: %d", lb)
	}
}

func TestFFDSolvesTiny(t *testing.T) {
	for _, k := range []SortKey{SortCPU, SortL1, SortL2} {
		r, err := (FFD{Key: k}).Solve(tinyProblem())
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if r.HostsUsed != 2 {
			t.Fatalf("%v: hosts=%d", k, r.HostsUsed)
		}
		if err := Validate(tinyProblem(), r.Placement); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestFFDInfeasible(t *testing.T) {
	p := tinyProblem()
	p.VMs = append(p.VMs, types.VMSpec{ID: "huge", Requested: types.RV(100, 1, 1, 1)})
	if _, err := (FFD{}).Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err: %v", err)
	}
}

func TestFFDValidOnRandomInstances(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, kind := range []workload.InstanceKind{workload.UniformInstance, workload.CorrelatedInstance, workload.AntiCorrelatedInstance} {
			p := uniformProblem(seed, 60, kind)
			for _, k := range []SortKey{SortCPU, SortL1, SortL2} {
				r, err := (FFD{Key: k}).Solve(p)
				if err != nil {
					t.Fatalf("seed=%d kind=%v key=%v: %v", seed, kind, k, err)
				}
				if err := Validate(p, r.Placement); err != nil {
					t.Fatalf("seed=%d kind=%v key=%v: %v", seed, kind, k, err)
				}
				if r.HostsUsed < p.LowerBound() {
					t.Fatalf("hosts %d below lower bound %d", r.HostsUsed, p.LowerBound())
				}
			}
		}
	}
}

func TestExactOptimalOnTiny(t *testing.T) {
	r, err := (Exact{}).Solve(tinyProblem())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Optimal || r.HostsUsed != 2 {
		t.Fatalf("exact: hosts=%d optimal=%v", r.HostsUsed, r.Optimal)
	}
	if err := Validate(tinyProblem(), r.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestExactBeatsOrMatchesFFD(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := uniformProblem(seed, 16, workload.CorrelatedInstance)
		ffd, err := (FFD{Key: SortCPU}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := (Exact{}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if ex.HostsUsed > ffd.HostsUsed {
			t.Fatalf("seed %d: exact %d > ffd %d", seed, ex.HostsUsed, ffd.HostsUsed)
		}
		if ex.HostsUsed < p.LowerBound() {
			t.Fatalf("exact below lower bound")
		}
		if err := Validate(p, ex.Placement); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExactEdgeCases(t *testing.T) {
	// Empty problem.
	r, err := (Exact{}).Solve(Problem{Nodes: tinyProblem().Nodes})
	if err != nil || !r.Optimal || len(r.Placement) != 0 {
		t.Fatalf("empty: %+v %v", r, err)
	}
	// No hosts.
	if _, err := (Exact{}).Solve(Problem{VMs: tinyProblem().VMs}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("no hosts: %v", err)
	}
	// Oversized VM.
	p := tinyProblem()
	p.VMs[0].Requested = types.RV(1000, 1, 1, 1)
	if _, err := (Exact{}).Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("oversized: %v", err)
	}
	// Node cap: falls back to incumbent without proving optimality.
	big := uniformProblem(9, 30, workload.UniformInstance)
	r, err = (Exact{MaxNodes: 10}).Solve(big)
	if err != nil {
		t.Fatal(err)
	}
	if r.Optimal {
		t.Fatal("claimed optimality with a 10-node search budget")
	}
	if err := Validate(big, r.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestACOSolvesTinyOptimally(t *testing.T) {
	r, err := (ACO{}).Solve(tinyProblem())
	if err != nil {
		t.Fatal(err)
	}
	if r.HostsUsed != 2 {
		t.Fatalf("aco hosts: %d", r.HostsUsed)
	}
	if err := Validate(tinyProblem(), r.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestACODeterministicPerSeed(t *testing.T) {
	p := uniformProblem(3, 40, workload.UniformInstance)
	cfg := DefaultACOConfig()
	cfg.Seed = 99
	a, err := (ACO{Config: cfg}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (ACO{Config: cfg}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.HostsUsed != b.HostsUsed {
		t.Fatalf("non-deterministic: %d vs %d", a.HostsUsed, b.HostsUsed)
	}
	for vm, n := range a.Placement {
		if b.Placement[vm] != n {
			t.Fatalf("placement differs for %s", vm)
		}
	}
}

func TestACOValidAndBounded(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := uniformProblem(seed, 50, workload.CorrelatedInstance)
		r, err := (ACO{}).Solve(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Validate(p, r.Placement); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.HostsUsed < p.LowerBound() {
			t.Fatalf("seed %d: hosts %d below bound %d", seed, r.HostsUsed, p.LowerBound())
		}
	}
}

func TestACOBeatsOrMatchesFFDOnAverage(t *testing.T) {
	// The paper's headline (Section III-B): ACO uses fewer hosts than FFD
	// on average. Verify over a seed sweep; allow individual ties.
	var acoTotal, ffdTotal int
	for seed := int64(1); seed <= 8; seed++ {
		p := uniformProblem(seed, 50, workload.CorrelatedInstance)
		a, err := (ACO{}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := (FFD{Key: SortCPU}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		acoTotal += a.HostsUsed
		ffdTotal += f.HostsUsed
	}
	if acoTotal > ffdTotal {
		t.Fatalf("ACO used more hosts in aggregate: %d vs %d", acoTotal, ffdTotal)
	}
}

func TestACONearOptimal(t *testing.T) {
	// Deviation from optimal should be small (paper: 1.1%). On small
	// instances we demand at most one extra host.
	for seed := int64(1); seed <= 4; seed++ {
		p := uniformProblem(seed, 14, workload.UniformInstance)
		a, err := (ACO{}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := (Exact{}).Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.HostsUsed > ex.HostsUsed+1 {
			t.Fatalf("seed %d: ACO %d vs optimal %d", seed, a.HostsUsed, ex.HostsUsed)
		}
	}
}

// TestACOSingleColonyIdenticalAcrossGOMAXPROCS: a lone colony builds its ants
// on goroutines, but their seeds are drawn serially, so the result cannot
// depend on how many of them actually run at once.
func TestACOSingleColonyIdenticalAcrossGOMAXPROCS(t *testing.T) {
	p := uniformProblem(2, 40, workload.UniformInstance)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, err := (ACO{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	four, err := (ACO{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, four.Placement); err != nil {
		t.Fatal(err)
	}
	if one.Cycles != four.Cycles || !reflect.DeepEqual(one.Placement, four.Placement) {
		t.Fatalf("GOMAXPROCS 1 vs 4: cycles %d vs %d, placements equal=%v",
			one.Cycles, four.Cycles, reflect.DeepEqual(one.Placement, four.Placement))
	}
}

func TestACOInvalidConfigFallsBack(t *testing.T) {
	p := tinyProblem()
	r, err := (ACO{Config: ACOConfig{Ants: -1, Cycles: 0, Rho: 7}}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.HostsUsed != 2 {
		t.Fatalf("fallback config hosts: %d", r.HostsUsed)
	}
}

func TestACOEdgeCases(t *testing.T) {
	if r, err := (ACO{}).Solve(Problem{Nodes: tinyProblem().Nodes}); err != nil || len(r.Placement) != 0 {
		t.Fatalf("empty: %+v %v", r, err)
	}
	if _, err := (ACO{}).Solve(Problem{VMs: tinyProblem().VMs}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("no hosts: %v", err)
	}
	p := tinyProblem()
	p.VMs[0].Requested = types.RV(1000, 1, 1, 1)
	if _, err := (ACO{}).Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	p := tinyProblem()
	// Unplaced VM.
	if err := Validate(p, types.Placement{}); err == nil {
		t.Fatal("unplaced accepted")
	}
	// Unknown node.
	pl := types.Placement{}
	for _, vm := range p.VMs {
		pl[vm.ID] = "ghost"
	}
	if err := Validate(p, pl); err == nil {
		t.Fatal("unknown node accepted")
	}
	// Overcommit.
	pl = types.Placement{}
	for _, vm := range p.VMs {
		pl[vm.ID] = p.Nodes[0].ID // 4 × half-node on one node
	}
	if err := Validate(p, pl); err == nil {
		t.Fatal("overcommit accepted")
	}
}

func TestAvgHostUtilization(t *testing.T) {
	p := tinyProblem()
	r, _ := (Exact{}).Solve(p)
	// Two hosts, each with 2 half-node VMs → 100% mean utilization.
	if u := AvgHostUtilization(p, r.Placement); u < 0.99 {
		t.Fatalf("utilization: %v", u)
	}
	if u := AvgHostUtilization(p, types.Placement{}); u != 0 {
		t.Fatalf("empty placement utilization: %v", u)
	}
	// Spreading over 4 hosts halves utilization.
	spread := types.Placement{}
	for i, vm := range p.VMs {
		spread[vm.ID] = p.Nodes[i].ID
	}
	if u := AvgHostUtilization(p, spread); u > 0.51 {
		t.Fatalf("spread utilization: %v", u)
	}
}

func TestConsolidationImprovementShape(t *testing.T) {
	// The qualitative claim: ACO yields "superior average host utilization"
	// vs FFD. Check utilization ordering on a larger instance.
	p := uniformProblem(7, 80, workload.CorrelatedInstance)
	a, err := (ACO{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := (FFD{Key: SortCPU}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if AvgHostUtilization(p, a.Placement)+0.02 < AvgHostUtilization(p, f.Placement) {
		t.Fatalf("ACO utilization %v well below FFD %v",
			AvgHostUtilization(p, a.Placement), AvgHostUtilization(p, f.Placement))
	}
}
