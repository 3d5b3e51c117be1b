package consolidation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snooze/internal/types"
	"snooze/internal/workload"
)

// Property-based tests over randomly generated instances: every solver must
// produce a valid placement whose host count respects the problem's lower
// bound, and the solvers must respect their quality ordering.

func randomProblem(rng *rand.Rand) Problem {
	n := 5 + rng.Intn(26) // 5..30 VMs
	kind := workload.InstanceKind(rng.Intn(3))
	lo := 0.05 + rng.Float64()*0.15
	hi := lo + 0.1 + rng.Float64()*0.3
	inst := workload.NewInstance(workload.InstanceConfig{
		Seed: rng.Int63(), VMs: n, Kind: kind, Lo: lo, Hi: hi,
	})
	return Problem{VMs: inst.VMs, Nodes: inst.Nodes}
}

func TestPropertyAllSolversValid(t *testing.T) {
	algos := []Algorithm{
		FFD{Key: SortCPU}, FFD{Key: SortL1}, FFD{Key: SortL2},
		ACO{Config: ACOConfig{Ants: 4, Cycles: 5, Alpha: 1, Beta: 4, Rho: 0.3, Q: 2, Seed: 1}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		lb := p.LowerBound()
		for _, a := range algos {
			r, err := a.Solve(p)
			if err != nil {
				t.Logf("%s: %v", a.Name(), err)
				return false
			}
			if err := Validate(p, r.Placement); err != nil {
				t.Logf("%s: %v", a.Name(), err)
				return false
			}
			if r.HostsUsed < lb {
				t.Logf("%s: %d hosts below bound %d", a.Name(), r.HostsUsed, lb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyExactNeverWorse(t *testing.T) {
	// The exact solver (bounded) must never use more hosts than any
	// heuristic, and when it proves optimality it must match or beat ACO.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := workload.NewInstance(workload.InstanceConfig{
			Seed: rng.Int63(), VMs: 6 + rng.Intn(10), Kind: workload.UniformInstance, Lo: 0.1, Hi: 0.4,
		})
		p := Problem{VMs: inst.VMs, Nodes: inst.Nodes}
		ex, err := (Exact{MaxNodes: 500_000}).Solve(p)
		if err != nil {
			return false
		}
		ffd, err := (FFD{Key: SortCPU}).Solve(p)
		if err != nil {
			return false
		}
		if ex.HostsUsed > ffd.HostsUsed {
			t.Logf("exact %d > ffd %d", ex.HostsUsed, ffd.HostsUsed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPlanReachesTarget(t *testing.T) {
	// For any two valid placements of the same instance, applying the plan
	// transforms current into target exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		cur, err := (FFD{Key: SortCPU}).Solve(p)
		if err != nil {
			return false
		}
		tgt, err := (ACO{Config: ACOConfig{Ants: 4, Cycles: 4, Alpha: 1, Beta: 4, Rho: 0.3, Q: 2, Seed: seed}}).Solve(p)
		if err != nil {
			return false
		}
		specs := map[types.VMID]types.VMSpec{}
		for _, vm := range p.VMs {
			specs[vm.ID] = vm
		}
		plan := Plan(cur.Placement, tgt.Placement, specs, p.Nodes)
		got := cur.Placement.Clone()
		for _, m := range plan {
			got[m.VM] = m.To
		}
		for vm, n := range tgt.Placement {
			if got[vm] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
