package consolidation

import (
	"testing"

	"snooze/internal/workload"
)

// benchSink keeps solver results live across iterations.
var benchSink int

// BenchmarkACOSolve compares one colony against several at equal total work.
// ACO with C colonies explores C independent trajectories (plus the best-plan
// exchange); its one-colony equivalent is C multi-start runs taking the best
// placement. The single-run variant prices one raw trajectory for reference.
func BenchmarkACOSolve(b *testing.B) {
	p := uniformProblem(3, 48, workload.CorrelatedInstance)
	cfg := DefaultACOConfig()
	cfg.Seed = 17
	const colonies = 4

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := (ACO{Config: cfg}).Solve(p)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = r.HostsUsed
		}
	})
	b.Run("serial-multistart-x4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best := -1
			for c := 0; c < colonies; c++ {
				run := cfg
				run.Seed = colonySeed(cfg.Seed, c)
				r, err := (ACO{Config: run}).Solve(p)
				if err != nil {
					b.Fatal(err)
				}
				if best < 0 || r.HostsUsed < best {
					best = r.HostsUsed
				}
			}
			benchSink = best
		}
	})
	b.Run("colonies-x4", func(b *testing.B) {
		solver := ACO{Colonies: colonies, Config: cfg}
		for i := 0; i < b.N; i++ {
			r, err := solver.Solve(p)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = r.HostsUsed
		}
	})
}
