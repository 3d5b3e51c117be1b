package main

// loadgen.go is the load generator: loadWorkers goroutines, one keep-alive
// connection each, driving the deployment through the typed /v1 client. Every
// stream is open loop: operations come from a seeded schedule and are timed
// from their due time. The fixed VM population is held by retiring the oldest
// VM on its hypervisor node, outside the timed section.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/internal/hypervisor"
	"snooze/internal/types"
)

type opKind uint8

const (
	opSubmit opKind = iota
	opListVMs
	opListNodes
	opTopology
	opSeries
	opGetVM
	opKinds
)

var opNames = [opKinds]string{"submit", "list_vms", "list_nodes", "topology", "series", "get_vm"}

// readCycle is what one read cycle of read_mix holds.
var readCycle = []opKind{opListVMs, opListNodes, opTopology, opSeries, opGetVM}

// op is one scheduled operation.
type op struct {
	kind opKind
	due  time.Duration // offset from load start
}

// sample is one completed operation.
type sample struct {
	kind    opKind
	at      time.Duration // due time, from load start
	lat     time.Duration // reply − due
	late    time.Duration // how late the generator itself ran: start − max(due, worker free)
	backlog time.Duration // start − due: late, plus the wait for a worker that was still busy
	vms     int           // VMs in a submit
	failed  int           // VMs not placed, or 1 for a failed read
}

// arrivals returns seeded due times at rate per second: every slot holds
// exactly rate×slot arrivals at independent uniform offsets. With one-second
// slots that is a Poisson process conditioned on its count per second — bursty
// at the millisecond scale that decides queueing, yet every seed offers the
// same number of requests, so per-placement ratios do not inherit
// arrival-count noise. With slots of
// 1/rate it is a sampling probe: one request per interval at a random phase.
func arrivals(rng *rand.Rand, rate float64, slot, total time.Duration) []time.Duration {
	var out []time.Duration
	perSlot := int(rate*slot.Seconds() + 0.5)
	for start := time.Duration(0); start+slot <= total; start += slot {
		first := len(out)
		for i := 0; i < perSlot; i++ {
			out = append(out, start+time.Duration(rng.Float64()*float64(slot)))
		}
		sort.Slice(out[first:], func(i, j int) bool { return out[first+i] < out[first+j] })
	}
	return out
}

// buildSchedule generates a workload's open-loop operations for total time.
func buildSchedule(w workloadSpec, rng *rand.Rand, total time.Duration) []op {
	var ops []op
	add := func(kind opKind, dues []time.Duration) {
		for _, d := range dues {
			ops = append(ops, op{kind: kind, due: d})
		}
	}
	probe := func(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }
	if w.SubmitRate > 0 {
		slot := probe(w.SubmitRate)
		if w.Poisson {
			slot = time.Second
		}
		add(opSubmit, arrivals(rng, w.SubmitRate, slot, total))
	}
	if w.CycleRate > 0 {
		for _, kind := range readCycle {
			add(kind, arrivals(rng, w.CycleRate, probe(w.CycleRate), total))
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// placedVM is one live VM and the node the API reported it on.
type placedVM struct {
	id   string
	node types.NodeID
}

// population holds the live VM set at a fixed size and checks each placement
// against the hypervisor the API named.
type population struct {
	nodes map[types.NodeID]*hypervisor.Node
	limit int

	mu        sync.Mutex
	live      []placedVM // FIFO from head
	head      int
	misplaced int // API said node N, VM was not on N
}

// placed records a placement reply and retires the oldest VMs beyond the limit.
func (p *population) placed(id, node string) {
	n, ok := p.nodes[types.NodeID(node)]
	onNode := ok && n.HasVM(types.VMID(id))
	p.mu.Lock()
	defer p.mu.Unlock()
	if !onNode {
		p.misplaced++
		return
	}
	p.live = append(p.live, placedVM{id: id, node: types.NodeID(node)})
	for len(p.live)-p.head > p.limit {
		old := p.live[p.head]
		p.head++
		// The only way a guest ends: it stops on its hypervisor; the hierarchy
		// learns of it from the next monitor report.
		if err := p.nodes[old.node].StopVM(types.VMID(old.id)); err != nil {
			p.misplaced++
		}
	}
	if p.head > 4096 && p.head > len(p.live)/2 {
		p.live = append([]placedVM(nil), p.live[p.head:]...)
		p.head = 0
	}
}

// snapshot returns the live set, oldest first.
func (p *population) snapshot() []placedVM {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]placedVM(nil), p.live[p.head:]...)
}

// settled returns a VM from the middle of the FIFO: old enough to be in the
// GM inventory, far enough from retirement to still be there when read.
func (p *population) settled(rng *rand.Rand) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.live) - p.head
	if n < 4 {
		return "", false
	}
	return p.live[p.head+n/4+rng.Intn(n/2)].id, true
}

// loadgen runs one workload's load against one deployment.
type loadgen struct {
	d     *deployment
	w     workloadSpec
	pop   *population
	trace *harnessTrace

	start    time.Time
	end      time.Duration // load stops at this offset
	schedule []op

	next   atomic.Int64 // index of the next unclaimed operation of schedule
	reqSeq atomic.Int64
	placed atomic.Int64 // VMs placed
	reads  atomic.Int64 // read operations completed

	samples [loadWorkers][]sample
}

// claim hands out the next scheduled operation.
func (g *loadgen) claim() (op, bool) {
	i := int(g.next.Add(1)) - 1
	if i >= len(g.schedule) {
		return op{}, false
	}
	return g.schedule[i], true
}

// sleepPrecisely blocks in nanosleep(2). time.Sleep parks the goroutine on
// the runtime's timers, and an idle Go scheduler waits for those in epoll
// with millisecond granularity: a 50 µs sleep takes 1.1 ms, which would make
// every request start late by about its own service time.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only starts the request early
}

// run drives the load from g.start until the schedule ends (g.end) and
// returns when every worker is idle.
func (g *loadgen) run(seed int64) {
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g.worker(w, rand.New(rand.NewSource(seed*7919+int64(w)+1)))
		}(w)
	}
	wg.Wait()
}

// worker takes the next operation, waits until it is due, performs it and
// records it; an operation both workers were too busy to start on time
// starts as soon as one is free, and its wait counts as latency.
func (g *loadgen) worker(w int, rng *rand.Rand) {
	ctx := context.Background()
	var free time.Duration // when this worker finished its previous operation
	for {
		o, ok := g.claim()
		if !ok || o.due >= g.end {
			return
		}
		if now := time.Since(g.start); o.due > now {
			sleepPrecisely(o.due - now)
		}
		begin := time.Since(g.start)
		s := sample{kind: o.kind, at: o.due, late: begin - max(o.due, free), backlog: begin - o.due}
		g.execute(ctx, rng, o, &s)
		free = time.Since(g.start)
		s.lat = free - o.due
		g.samples[w] = append(g.samples[w], s)
	}
}

// execute performs one operation and fills the sample's outcome fields.
func (g *loadgen) execute(ctx context.Context, rng *rand.Rand, o op, s *sample) {
	switch o.kind {
	case opSubmit:
		s.vms = g.w.Batch
		s.failed = g.submit(ctx, rng, g.w.Batch)
	case opListVMs:
		vms, err := g.d.client.ListVMs(ctx)
		if err != nil || len(vms) == 0 {
			s.failed = 1
		}
	case opListNodes:
		nodes, err := g.d.client.ListNodes(ctx)
		if err != nil || len(nodes) != g.d.cfg.totalLCs() {
			s.failed = 1
		}
	case opTopology:
		topo, err := g.d.client.Topology(ctx, true)
		if err != nil || len(topo.GMs) != managerCount-1 {
			s.failed = 1
		}
	case opSeries:
		node := g.d.nodeIDs[rng.Intn(len(g.d.nodeIDs))]
		data, err := g.d.client.QuerySeries(ctx, apiv1.SeriesQuery{Entity: "node/" + string(node), Metric: "util"})
		if err != nil || len(data.Points) == 0 {
			s.failed = 1
		}
	case opGetVM:
		id, ok := g.pop.settled(rng)
		if !ok {
			s.failed = 1
			break
		}
		vm, err := g.d.client.GetVM(ctx, id)
		if err != nil || vm.ID != id {
			s.failed = 1
		}
	}
	if o.kind != opSubmit {
		g.reads.Add(1)
	}
}

// submit posts one n-VM submission and returns how many VMs were not placed.
func (g *loadgen) submit(ctx context.Context, rng *rand.Rand, n int) int {
	req := fmt.Sprintf("r%07d", g.reqSeq.Add(1))
	specs := make([]apiv1.VMSpec, n)
	for i := range specs {
		specs[i] = apiv1.VMSpec{ID: fmt.Sprintf("%s-%d", req, i), Requested: g.w.flavour(rng, g.d.cfg.totalLCs())}
	}
	traced := g.trace != nil && g.trace.on.Load()
	var t0 time.Duration
	if traced {
		ctx = withReqID(ctx, req)
		t0 = g.trace.now()
	}
	res, err := g.d.client.SubmitVMs(ctx, specs)
	if traced {
		g.trace.addSubmit(req, n, t0, g.trace.now())
	}
	if err != nil {
		return n
	}
	for id, node := range res.Placed {
		g.pop.placed(id, node)
	}
	g.placed.Add(int64(len(res.Placed)))
	return n - len(res.Placed)
}

// preload fills the population through the API in batches, retrying VMs the
// hierarchy could not place yet (the GL may still be learning its groups).
func (g *loadgen) preload(rng *rand.Rand, target int) error {
	ctx := context.Background()
	deadline := time.Now().Add(setupTimeout)
	for placed := 0; placed < target; {
		n := min(64, target-placed)
		failed := g.submit(ctx, rng, n)
		placed += n - failed
		if failed > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("preload: %d of %d VMs placed", placed, target)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}
