package consolidation

import (
	"testing"

	"snooze/internal/workload"
)

func TestParallelACOSolvesTinyOptimally(t *testing.T) {
	cfg := DefaultACOConfig()
	cfg.Seed = 7
	r, err := (ACO{Colonies: 4, Config: cfg}).Solve(tinyProblem())
	if err != nil {
		t.Fatal(err)
	}
	if r.HostsUsed != 2 || !r.Optimal {
		t.Fatalf("hosts=%d optimal=%v", r.HostsUsed, r.Optimal)
	}
	if err := Validate(tinyProblem(), r.Placement); err != nil {
		t.Fatal(err)
	}
}

func TestParallelACODeterministicPerSeed(t *testing.T) {
	p := uniformProblem(21, 40, workload.UniformInstance)
	cfg := DefaultACOConfig()
	cfg.Seed = 99
	solver := ACO{Colonies: 4, Config: cfg}
	first, err := solver.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := solver.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if again.HostsUsed != first.HostsUsed {
			t.Fatalf("run %d: hosts %d != %d", i, again.HostsUsed, first.HostsUsed)
		}
		for vm, node := range first.Placement {
			if again.Placement[vm] != node {
				t.Fatalf("run %d: vm %s on %s, want %s", i, vm, again.Placement[vm], node)
			}
		}
	}
}

func TestParallelACOSingleColonyMatchesSerial(t *testing.T) {
	p := uniformProblem(5, 30, workload.UniformInstance)
	cfg := DefaultACOConfig()
	cfg.Seed = 11
	serial, err := (ACO{Config: cfg}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (ACO{Colonies: 1, Config: cfg}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if par.HostsUsed != serial.HostsUsed {
		t.Fatalf("hosts %d != serial %d", par.HostsUsed, serial.HostsUsed)
	}
	for vm, node := range serial.Placement {
		if par.Placement[vm] != node {
			t.Fatalf("vm %s on %s, want %s", vm, par.Placement[vm], node)
		}
	}
}

// TestParallelACOQualityNoWorseThanSerial is the export-only-reference
// property: colony 0 replays the serial trajectory bit-for-bit and the result
// is the best across colonies, so for any seed the parallel solver cannot
// pack onto more hosts than the serial one.
func TestParallelACOQualityNoWorseThanSerial(t *testing.T) {
	for _, kind := range []workload.InstanceKind{workload.UniformInstance, workload.CorrelatedInstance} {
		for seed := int64(1); seed <= 5; seed++ {
			p := uniformProblem(seed, 36, kind)
			cfg := DefaultACOConfig()
			cfg.Seed = seed * 31
			serial, err := (ACO{Config: cfg}).Solve(p)
			if err != nil {
				t.Fatalf("kind %v seed %d serial: %v", kind, seed, err)
			}
			par, err := (ACO{Colonies: 4, Config: cfg}).Solve(p)
			if err != nil {
				t.Fatalf("kind %v seed %d parallel: %v", kind, seed, err)
			}
			if par.HostsUsed > serial.HostsUsed {
				t.Fatalf("kind %v seed %d: parallel %d hosts > serial %d",
					kind, seed, par.HostsUsed, serial.HostsUsed)
			}
			if err := Validate(p, par.Placement); err != nil {
				t.Fatalf("kind %v seed %d: %v", kind, seed, err)
			}
			if lb := p.LowerBound(); par.HostsUsed < lb {
				t.Fatalf("kind %v seed %d: %d hosts below lower bound %d", kind, seed, par.HostsUsed, lb)
			}
		}
	}
}

func TestParallelACOEdgeCases(t *testing.T) {
	cfg := DefaultACOConfig()
	solver := ACO{Colonies: 3, Config: cfg}
	r, err := solver.Solve(Problem{Nodes: tinyProblem().Nodes})
	if err != nil || r.HostsUsed != 0 {
		t.Fatalf("empty VM set: %+v %v", r, err)
	}
	infeasible := tinyProblem()
	infeasible.Nodes = nil
	if _, err := solver.Solve(infeasible); err == nil {
		t.Fatal("no hosts: want error")
	}
}
