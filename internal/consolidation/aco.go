package consolidation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"snooze/internal/types"
)

// ACOConfig holds the Ant Colony Optimization parameters. The defaults are
// calibrated to reproduce the solution quality reported in Section III-B
// (ACO within ~1% of optimal, a few percent fewer hosts than FFD) on the
// instance classes of internal/workload.
type ACOConfig struct {
	// Ants per cycle ("multiple agents ... compute solutions
	// probabilistically and simultaneously within multiple cycles").
	Ants int
	// Cycles of construction + pheromone update.
	Cycles int
	// Alpha weights the pheromone term in the decision rule.
	Alpha float64
	// Beta weights the heuristic information term.
	Beta float64
	// Rho is the pheromone evaporation rate in (0,1).
	Rho float64
	// Q scales the pheromone deposit (deposit = Q / hostsUsed(best)).
	Q float64
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultACOConfig returns the parameter set used by the experiments.
func DefaultACOConfig() ACOConfig {
	return ACOConfig{
		Ants:   8,
		Cycles: 15,
		Alpha:  1,
		Beta:   4, // strongly utilization-guided; calibrated in E7's ablation
		Rho:    0.3,
		Q:      2,
		Seed:   1,
	}
}

// ACO is the paper's nature-inspired consolidation algorithm: a Max-Min Ant
// System over a pheromone matrix indexed by (VM, host) pairs (Section III-A:
// ants "communicate indirectly by depositing ... pheromone on each VM-LC
// pair within a pheromone matrix").
//
// The solver runs on goroutines either way ("the algorithm is well suited for
// parallelization", Section III-A) and is deterministic under a seed either
// way. A lone colony builds the ants of a cycle concurrently; several colonies
// each run on their own goroutine over a private pheromone matrix and RNG and
// exchange the best plan at barriers every exchangeEvery cycles.
type ACO struct {
	Config ACOConfig
	// Colonies is the number of concurrent colonies; values below 2 mean
	// one. Colony 0 uses Config.Seed and exports its best into the exchange
	// but never imports, so its trajectory is the one-colony run bit for bit
	// and the result — the best across colonies — is never worse than it.
	Colonies int
}

// exchangeEvery is the number of cycles colonies run between best-plan
// exchanges.
const exchangeEvery = 5

// Name implements Algorithm.
func (ACO) Name() string { return "aco" }

// Solve implements Algorithm.
//
// Per cycle, every ant constructs a complete VM→host assignment host by
// host: it keeps filling the current host with unassigned VMs chosen by the
// probabilistic decision rule
//
//	P(vm) ∝ τ[vm,host]^α · η(vm,host)^β
//
// where the heuristic information η favours VMs that lead to "better overall
// LC utilization" — here the host's mean utilization after packing the VM.
// When no unassigned VM fits the residual capacity, the ant opens the next
// host. At cycle end the best solution (fewest hosts) updates the colony's
// best; the pheromone matrix evaporates by ρ and the best's pairs are
// reinforced, with Max-Min clamping to keep exploration alive.
func (a ACO) Solve(p Problem) (Result, error) {
	inst, res, err := newACOInstance(a.Config, p)
	if inst == nil {
		return res, err
	}
	cols := make([]*colony, max(1, a.Colonies))
	for i := range cols {
		cols[i] = newColony(inst, colonySeed(inst.cfg.Seed, i))
	}
	// Parallelism lives across colonies when there are several; per-ant
	// goroutines inside each would only add scheduling overhead.
	cols[0].concurrentAnts = len(cols) == 1
	for remaining := inst.cfg.Cycles; remaining > 0; remaining -= exchangeEvery {
		span := min(exchangeEvery, remaining)
		var wg sync.WaitGroup
		for _, c := range cols[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.runCycles(span)
			}()
		}
		cols[0].runCycles(span)
		wg.Wait()
		// Deterministic reduction: fewest hosts wins, ties go to the lowest
		// colony index.
		best := globalBest(cols)
		if best.assign == nil {
			continue
		}
		if best.used == inst.lb {
			break // provably optimal; stop early
		}
		// Exchange: colonies adopt the global best and reinforce it next
		// epoch. Colony 0 only exports, preserving its one-colony identity.
		for _, c := range cols[1:] {
			c.adopt(best)
		}
	}
	cycles := 0
	for _, c := range cols {
		cycles = max(cycles, c.cycles)
	}
	return inst.result(globalBest(cols), cycles)
}

// colonySeed derives colony i's RNG seed. Colony 0 keeps the base seed so it
// replays the one-colony run exactly; the golden-ratio multiplier decorrelates
// the rest.
func colonySeed(base int64, i int) int64 {
	if i == 0 {
		return base
	}
	return base ^ (int64(i) * -0x61c8864680b583eb) // 2^64/φ, signed
}

// globalBest reduces the colonies' bests deterministically: fewest hosts,
// ties broken by colony order.
func globalBest(cols []*colony) acoSolution {
	best := acoSolution{}
	for _, c := range cols {
		if c.best.assign == nil {
			continue
		}
		if best.assign == nil || c.best.used < best.used {
			best = c.best
		}
	}
	return best
}

// acoInstance is the shared, read-only part of one ACO run: the validated and
// deterministically ordered problem plus the Max-Min pheromone bounds, shared
// by every colony of the run.
type acoInstance struct {
	cfg    ACOConfig
	vms    []types.VMSpec
	nodes  []types.NodeSpec
	lb     int
	tauMax float64
	tauMin float64
}

// newACOInstance validates the problem and precomputes the shared run state.
// A nil instance means the run is already decided: the accompanying Result
// and error are final (empty problem, no hosts, or an unpackable VM).
func newACOInstance(cfg ACOConfig, p Problem) (*acoInstance, Result, error) {
	if cfg.Ants <= 0 || cfg.Cycles <= 0 {
		cfg = DefaultACOConfig()
	}
	if cfg.Rho <= 0 || cfg.Rho >= 1 {
		cfg.Rho = 0.3
	}
	if cfg.Q <= 0 {
		cfg.Q = 2
	}
	nodes := sortedNodes(p)
	if len(p.VMs) == 0 {
		return nil, Result{Placement: types.Placement{}}, nil
	}
	if len(nodes) == 0 {
		return nil, Result{}, fmt.Errorf("%w: no hosts", ErrInfeasible)
	}
	vms := append([]types.VMSpec(nil), p.VMs...)
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	for _, vm := range vms {
		if !fitsAny(vm, nodes) {
			return nil, Result{}, fmt.Errorf("%w: %s", ErrInfeasible, vm.ID)
		}
	}
	// Max-Min pheromone bounds. τmax tracks the theoretical deposit on an
	// ideal solution; τmin keeps every pair selectable.
	lb := p.LowerBound()
	tauMax := cfg.Q / (cfg.Rho * math.Max(1, float64(lb)))
	tauMin := tauMax / (2 * float64(len(vms)))
	return &acoInstance{cfg: cfg, vms: vms, nodes: nodes, lb: lb, tauMax: tauMax, tauMin: tauMin}, Result{}, nil
}

// result maps a best solution back onto VM/node IDs.
func (inst *acoInstance) result(best acoSolution, cycles int) (Result, error) {
	if best.assign == nil {
		return Result{}, fmt.Errorf("%w: ants found no complete packing", ErrInfeasible)
	}
	placement := make(types.Placement, len(inst.vms))
	for i, h := range best.assign {
		placement[inst.vms[i].ID] = inst.nodes[h].ID
	}
	return Result{
		Placement: placement,
		HostsUsed: placement.NodesUsed(),
		Optimal:   best.used == inst.lb,
		Cycles:    cycles,
	}, nil
}

// acoSolution is one complete VM→host assignment by VM index. The assign
// slice is never mutated after construction, so solutions may be shared
// across colonies without copying. A nil assign marks "no complete solution
// yet".
type acoSolution struct {
	assign []int // VM index -> host index
	used   int
}

// colony is one pheromone matrix plus its ants. Its methods run on a single
// goroutine; cross-colony exchange happens only at Solve's barriers.
type colony struct {
	inst   *acoInstance
	rng    *rand.Rand
	tau    [][]float64
	best   acoSolution
	cycles int
	// concurrentAnts builds the ants of a cycle on goroutines (lone colony).
	concurrentAnts bool
}

func newColony(inst *acoInstance, seed int64) *colony {
	tau := make([][]float64, len(inst.vms))
	for i := range tau {
		tau[i] = make([]float64, len(inst.nodes))
		for j := range tau[i] {
			tau[i][j] = inst.tauMax
		}
	}
	return &colony{inst: inst, rng: rand.New(rand.NewSource(seed)), tau: tau}
}

// construct builds one ant's solution host by host (see ACO.Solve).
func (c *colony) construct(rng *rand.Rand) acoSolution {
	inst := c.inst
	nVMs, nHosts := len(inst.vms), len(inst.nodes)
	assign := make([]int, nVMs)
	for i := range assign {
		assign[i] = -1
	}
	remaining := nVMs
	used := 0
	host := 0
	residual := inst.nodes[0].Capacity
	var probs []float64
	var cands []int
	for remaining > 0 && host < nHosts {
		// Candidates: unassigned VMs that fit the residual.
		cands = cands[:0]
		for i := range inst.vms {
			if assign[i] < 0 && inst.vms[i].Requested.FitsIn(residual) {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			host++
			if host < nHosts {
				residual = inst.nodes[host].Capacity
			}
			continue
		}
		// Probabilistic decision rule.
		probs = probs[:0]
		var total float64
		for _, i := range cands {
			after := inst.nodes[host].Capacity.Sub(residual).Add(inst.vms[i].Requested)
			eta := after.UtilizationL1(inst.nodes[host].Capacity)
			w := math.Pow(c.tau[i][host], inst.cfg.Alpha) * math.Pow(eta+1e-9, inst.cfg.Beta)
			probs = append(probs, w)
			total += w
		}
		pick := cands[len(cands)-1]
		if total > 0 {
			r := rng.Float64() * total
			acc := 0.0
			for k, w := range probs {
				acc += w
				if r <= acc {
					pick = cands[k]
					break
				}
			}
		}
		if residual == inst.nodes[host].Capacity {
			used++ // first VM on this host
		}
		assign[pick] = host
		residual = residual.Sub(inst.vms[pick].Requested)
		remaining--
	}
	if remaining > 0 {
		return acoSolution{assign: nil, used: nHosts + 1} // incomplete
	}
	return acoSolution{assign: assign, used: used}
}

// runCycles runs up to n cycles, stopping early at a provably optimal best.
func (c *colony) runCycles(n int) {
	for k := 0; k < n; k++ {
		if c.runCycle() {
			return
		}
	}
}

// runCycle runs one cycle (ant construction, best update, pheromone update)
// and reports whether the colony's best is provably optimal, i.e. further
// cycles cannot improve it.
func (c *colony) runCycle() bool {
	inst := c.inst
	c.cycles++
	sols := make([]acoSolution, inst.cfg.Ants)
	var wg sync.WaitGroup
	for a := range sols {
		// Ant seeds are drawn serially, so goroutine scheduling cannot perturb
		// the trajectory.
		rng := rand.New(rand.NewSource(c.rng.Int63()))
		if !c.concurrentAnts {
			sols[a] = c.construct(rng)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sols[a] = c.construct(rng)
		}()
	}
	wg.Wait()
	// "At the end of each cycle, local solutions are compared and the one
	// requiring the least number of LCs is saved as the new globally optimal
	// solution."
	for _, s := range sols {
		if s.assign != nil && (c.best.assign == nil || s.used < c.best.used) {
			c.best = s
		}
	}
	if c.best.assign == nil {
		return false // no complete solution yet; keep exploring
	}
	c.reinforce()
	return c.best.used == inst.lb
}

// reinforce evaporates the pheromone matrix and deposits on the colony's best
// solution's pairs, with Max-Min clamping (MMAS).
func (c *colony) reinforce() {
	inst := c.inst
	deposit := inst.cfg.Q / float64(c.best.used)
	for i := range c.tau {
		for j := range c.tau[i] {
			c.tau[i][j] *= 1 - inst.cfg.Rho
			if c.best.assign[i] == j {
				c.tau[i][j] += deposit
			}
			if c.tau[i][j] > inst.tauMax {
				c.tau[i][j] = inst.tauMax
			}
			if c.tau[i][j] < inst.tauMin {
				c.tau[i][j] = inst.tauMin
			}
		}
	}
}

// adopt imports an external best solution if it strictly beats the colony's
// own; subsequent cycles then reinforce the imported assignment. The solution
// is shared, not copied — acoSolution assign slices are immutable.
func (c *colony) adopt(s acoSolution) {
	if s.assign == nil {
		return
	}
	if c.best.assign == nil || s.used < c.best.used {
		c.best = s
	}
}
