// Package simkernel provides the deterministic discrete-event simulation
// kernel that drives the Snooze hierarchy in experiments, plus the Runtime
// abstraction that lets the very same component code run against the wall
// clock in real deployments (cmd/snoozed).
//
// The paper evaluated Snooze on a 144-node Grid'5000 cluster; this repo's
// substitute is a virtual-time kernel (DESIGN.md §2) so that experiments with
// thousands of Local Controllers, precise failure injection and repeatable
// seeds run in milliseconds on a laptop.
package simkernel

import (
	"container/heap"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Canceler cancels a pending timer. Cancel is idempotent and reports whether
// the timer was still pending.
type Canceler interface {
	Cancel() bool
}

// Runtime is the execution environment a hierarchy component runs in: a
// clock and a timer facility. Two implementations exist: *Kernel (virtual
// time, deterministic) and *WallRuntime (real time).
type Runtime interface {
	// Now returns the current time as an offset from the runtime epoch.
	Now() time.Duration
	// After schedules fn to run once, d from now. fn runs on the runtime's
	// executor: the simulation loop for Kernel; for WallRuntime, a reused
	// worker of an elastic pool when d <= 0 and a timer goroutine of its own
	// otherwise.
	After(d time.Duration, fn func()) Canceler
}

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

// event is one scheduled callback, and its own Canceler.
type event struct {
	k     *Kernel
	at    time.Duration
	seq   uint64 // FIFO tie-break for equal timestamps → determinism
	fn    func()
	index int // heap index; -1 when popped or cancelled
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

// Kernel is a single-threaded discrete-event simulator with a seeded RNG.
// All component callbacks execute on the goroutine that calls Run/Step, so
// simulation-mode components need no internal locking for kernel-driven
// work. Schedule/After may be called from within callbacks.
type Kernel struct {
	mu    sync.Mutex
	queue eventQueue
	now   time.Duration
	seq   uint64
	rng   *rand.Rand
	// processed counts executed events, for experiment accounting.
	processed uint64
}

// New creates a kernel whose RNG is seeded with seed (use a fixed seed for
// reproducible experiments).
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now implements Runtime.
func (k *Kernel) Now() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// RNG returns the kernel's deterministic random source. It must only be used
// from kernel callbacks (the simulation goroutine).
func (k *Kernel) RNG() *rand.Rand { return k.rng }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.processed
}

// Cancel implements Canceler.
func (e *event) Cancel() bool {
	e.k.mu.Lock()
	defer e.k.mu.Unlock()
	if e.index < 0 {
		return false
	}
	heap.Remove(&e.k.queue, e.index)
	return true
}

// After implements Runtime: schedule fn at now+d. Negative d is treated as 0
// (the event still runs strictly after the current callback returns).
func (k *Kernel) After(d time.Duration, fn func()) Canceler {
	if d < 0 {
		d = 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.scheduleLocked(k.now+d, fn)
}

// At schedules fn at the absolute virtual time t; times in the past run at
// the current time.
func (k *Kernel) At(t time.Duration, fn func()) Canceler {
	k.mu.Lock()
	defer k.mu.Unlock()
	if t < k.now {
		t = k.now
	}
	return k.scheduleLocked(t, fn)
}

func (k *Kernel) scheduleLocked(t time.Duration, fn func()) Canceler {
	e := &event{k: k, at: t, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.queue, e)
	return e
}

// Step executes the next pending event, advancing virtual time to it.
// It reports whether an event was executed.
func (k *Kernel) Step() bool {
	k.mu.Lock()
	if len(k.queue) == 0 {
		k.mu.Unlock()
		return false
	}
	e := heap.Pop(&k.queue).(*event)
	k.now = e.at
	k.processed++
	k.mu.Unlock()
	e.fn()
	return true
}

// Run executes events until the queue is empty or virtual time would exceed
// until. Time is left at min(until, last event time); if events remain past
// until, time is advanced to exactly until.
func (k *Kernel) Run(until time.Duration) {
	for {
		k.mu.Lock()
		if len(k.queue) == 0 || k.queue[0].at > until {
			if k.now < until {
				k.now = until
			}
			k.mu.Unlock()
			return
		}
		e := heap.Pop(&k.queue).(*event)
		k.now = e.at
		k.processed++
		k.mu.Unlock()
		e.fn()
	}
}

// RunAll executes events until the queue is empty. Periodic timers that
// re-arm themselves make this non-terminating, so RunAll takes a safety cap
// on the number of events and reports whether it drained the queue.
func (k *Kernel) RunAll(maxEvents uint64) bool {
	for i := uint64(0); i < maxEvents; i++ {
		if !k.Step() {
			return true
		}
	}
	k.mu.Lock()
	empty := len(k.queue) == 0
	k.mu.Unlock()
	return empty
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.queue)
}

// ---------------------------------------------------------------------------
// Wall-clock runtime
// ---------------------------------------------------------------------------

// WallRuntime implements Runtime on the real clock. Zero-delay callbacks —
// every bus delivery and reply — run on a process-wide elastic worker pool:
// each starts at once, on an idle worker if there is one and on a new one if
// not, so a callback never waits behind another. Delayed callbacks keep their
// own time.AfterFunc timers. Callbacks run concurrently either way, so
// components used with it must be internally synchronized — which all
// hierarchy components are.
type WallRuntime struct {
	epoch time.Time
}

// NewWallRuntime creates a wall-clock runtime with epoch = now.
func NewWallRuntime() *WallRuntime {
	return &WallRuntime{epoch: time.Now()}
}

// Now implements Runtime.
func (w *WallRuntime) Now() time.Duration { return time.Since(w.epoch) }

type wallCanceler struct{ t *time.Timer }

func (c wallCanceler) Cancel() bool { return c.t.Stop() }

// After implements Runtime.
func (w *WallRuntime) After(d time.Duration, fn func()) Canceler {
	if d > 0 {
		return wallCanceler{t: time.AfterFunc(d, fn)}
	}
	t := &wallTask{fn: fn}
	wallPool.run(t)
	return t
}

// WallWorkers reports the wall-clock executor's workers: how many were
// started since the process began, and how many are idle now.
func WallWorkers() (started uint64, idle int) {
	return wallPool.started.Load(), int(wallPool.idleN.Load())
}

// wallTask is one zero-delay callback and its Canceler: whichever of run and
// Cancel moves it out of pending first decides whether fn runs.
type wallTask struct {
	state atomic.Uint32 // taskPending, taskStarted or taskCancelled
	fn    func()
}

const (
	taskPending uint32 = iota
	taskStarted
	taskCancelled
)

func (t *wallTask) Cancel() bool { return t.state.CompareAndSwap(taskPending, taskCancelled) }

func (t *wallTask) run() {
	if t.state.CompareAndSwap(taskPending, taskStarted) {
		t.fn()
	}
}

// wallIdleTimeout is how long a worker may wait for work before it exits.
const wallIdleTimeout = time.Second

// wallPool is the executor behind every WallRuntime: process-wide, so all the
// runtimes of a process reuse the same warm workers.
var wallPool wallExecutor

// wallExecutor is an elastic worker pool. Idle workers wait on a LIFO stack,
// so the most recently used one, whose stack has already grown, is reused
// first; a janitor goroutine retires the workers idle for longer than
// wallIdleTimeout and exits once none is idle.
type wallExecutor struct {
	started atomic.Uint64
	idleN   atomic.Int64

	mu       sync.Mutex
	idle     []*wallWorker // oldest first
	cleaning bool          // a janitor is running
}

type wallWorker struct {
	tasks    chan *wallTask // buffered: a handoff never blocks; nil retires
	parkedAt time.Time
}

func (p *wallExecutor) run(t *wallTask) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.idleN.Add(-1)
		p.mu.Unlock()
		w.tasks <- t
		return
	}
	p.mu.Unlock()
	p.started.Add(1)
	go p.work(t)
}

func (p *wallExecutor) work(t *wallTask) {
	w := &wallWorker{tasks: make(chan *wallTask, 1)}
	for ; t != nil; t = <-w.tasks {
		t.run()
		w.parkedAt = time.Now()
		p.mu.Lock()
		p.idle = append(p.idle, w)
		p.idleN.Add(1)
		if !p.cleaning {
			p.cleaning = true
			go p.clean()
		}
		p.mu.Unlock()
	}
}

// clean retires idle workers, oldest first, once per wallIdleTimeout until
// none is left.
func (p *wallExecutor) clean() {
	for {
		time.Sleep(wallIdleTimeout)
		cutoff := time.Now().Add(-wallIdleTimeout)
		p.mu.Lock()
		n := 0
		for n < len(p.idle) && p.idle[n].parkedAt.Before(cutoff) {
			n++
		}
		for _, w := range p.idle[:n] {
			w.tasks <- nil // an idle worker's buffer is empty: never blocks
		}
		p.idle = slices.Delete(p.idle, 0, n)
		p.idleN.Add(-int64(n))
		done := len(p.idle) == 0
		if done {
			p.cleaning = false
		}
		p.mu.Unlock()
		if done {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Periodic helper
// ---------------------------------------------------------------------------

// Ticker re-arms itself on runtime rt every period and invokes fn each tick.
// Stop prevents further ticks (a tick already dispatched by a WallRuntime may
// still run). The first tick fires one full period after Start. A re-arm
// costs only the runtime's own timer: the callback it schedules is bound
// once, in NewTicker.
type Ticker struct {
	rt      Runtime
	period  time.Duration
	fn      func()
	fire    func() // t.tick, bound once
	mu      sync.Mutex
	pending Canceler
	stopped bool
}

// NewTicker creates a ticker; call Start to arm it.
func NewTicker(rt Runtime, period time.Duration, fn func()) *Ticker {
	t := &Ticker{rt: rt, period: period, fn: fn}
	t.fire = t.tick
	return t
}

// Start arms the ticker. Calling Start on a running or stopped ticker is a
// no-op.
func (t *Ticker) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || t.pending != nil {
		return
	}
	t.pending = t.rt.After(t.period, t.fire)
}

// tick re-arms the ticker, then runs fn.
func (t *Ticker) tick() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.pending = t.rt.After(t.period, t.fire)
	t.mu.Unlock()
	t.fn()
}

// Stop disarms the ticker.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	if t.pending != nil {
		t.pending.Cancel()
		t.pending = nil
	}
}
