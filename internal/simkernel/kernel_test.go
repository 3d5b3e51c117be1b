package simkernel

import (
	"sync"
	"testing"
	"time"
)

func TestKernelOrdering(t *testing.T) {
	k := New(1)
	var order []int
	k.After(30*time.Millisecond, func() { order = append(order, 3) })
	k.After(10*time.Millisecond, func() { order = append(order, 1) })
	k.After(20*time.Millisecond, func() { order = append(order, 2) })
	k.Run(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order: %v", order)
	}
	if k.Now() != time.Second {
		t.Fatalf("Now after Run: %v", k.Now())
	}
	if k.Processed() != 3 {
		t.Fatalf("Processed: %d", k.Processed())
	}
}

func TestKernelFIFOTieBreak(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(5*time.Millisecond, func() { order = append(order, i) })
	}
	k.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestKernelTimeAdvances(t *testing.T) {
	k := New(1)
	var at1, at2 time.Duration
	k.After(100*time.Millisecond, func() { at1 = k.Now() })
	k.After(250*time.Millisecond, func() { at2 = k.Now() })
	k.Run(time.Second)
	if at1 != 100*time.Millisecond || at2 != 250*time.Millisecond {
		t.Fatalf("event times: %v %v", at1, at2)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := New(1)
	fired := false
	k.After(10*time.Millisecond, func() {
		k.After(10*time.Millisecond, func() { fired = true })
	})
	k.Run(15 * time.Millisecond)
	if fired {
		t.Fatal("nested event fired too early")
	}
	k.Run(25 * time.Millisecond)
	if !fired {
		t.Fatal("nested event did not fire")
	}
}

func TestKernelCancel(t *testing.T) {
	k := New(1)
	fired := false
	c := k.After(10*time.Millisecond, func() { fired = true })
	if !c.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if c.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	k.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := New(1)
	c := k.After(10*time.Millisecond, func() {})
	k.Run(time.Second)
	if c.Cancel() {
		t.Fatal("Cancel after firing should report false")
	}
}

func TestKernelNegativeDelay(t *testing.T) {
	k := New(1)
	fired := false
	k.After(-time.Hour, func() { fired = true })
	if !k.Step() || !fired {
		t.Fatal("negative-delay event should run immediately")
	}
}

func TestKernelAt(t *testing.T) {
	k := New(1)
	var at time.Duration
	k.At(77*time.Millisecond, func() { at = k.Now() })
	k.Run(time.Second)
	if at != 77*time.Millisecond {
		t.Fatalf("At: fired at %v", at)
	}
	// Past times clamp to now.
	fired := false
	k.At(5*time.Millisecond, func() { fired = true })
	k.Step()
	if !fired || k.Now() != time.Second {
		t.Fatalf("past At: fired=%v now=%v", fired, k.Now())
	}
}

func TestKernelStepEmpty(t *testing.T) {
	k := New(1)
	if k.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestKernelRunStopsAtUntil(t *testing.T) {
	k := New(1)
	fired := false
	k.After(2*time.Second, func() { fired = true })
	k.Run(time.Second)
	if fired {
		t.Fatal("event past until fired")
	}
	if k.Now() != time.Second {
		t.Fatalf("Now: %v", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending: %d", k.Pending())
	}
	k.Run(3 * time.Second)
	if !fired {
		t.Fatal("event did not fire on later Run")
	}
}

func TestKernelRunAll(t *testing.T) {
	k := New(1)
	n := 0
	var rec func()
	rec = func() {
		n++
		if n < 5 {
			k.After(time.Millisecond, rec)
		}
	}
	k.After(time.Millisecond, rec)
	if !k.RunAll(100) {
		t.Fatal("RunAll should drain")
	}
	if n != 5 {
		t.Fatalf("n=%d", n)
	}
	// Self-rearming chain hits the cap.
	var forever func()
	forever = func() { k.After(time.Millisecond, forever) }
	k.After(time.Millisecond, forever)
	if k.RunAll(10) {
		t.Fatal("RunAll should report not drained at cap")
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func() []time.Duration {
		k := New(42)
		var log []time.Duration
		for i := 0; i < 50; i++ {
			d := time.Duration(k.RNG().Intn(1000)) * time.Millisecond
			k.After(d, func() { log = append(log, k.Now()) })
		}
		k.Run(2 * time.Second)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTickerPeriodic(t *testing.T) {
	k := New(1)
	n := 0
	tk := NewTicker(k, 10*time.Millisecond, func() { n++ })
	tk.Start()
	tk.Start() // double start is a no-op
	k.Run(55 * time.Millisecond)
	if n != 5 {
		t.Fatalf("ticks: %d", n)
	}
	tk.Stop()
	k.Run(200 * time.Millisecond)
	if n != 5 {
		t.Fatalf("ticks after stop: %d", n)
	}
	tk.Start() // start after stop is a no-op
	k.Run(300 * time.Millisecond)
	if n != 5 {
		t.Fatalf("ticks after restart attempt: %d", n)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	k := New(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(k, 10*time.Millisecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	tk.Start()
	k.Run(time.Second)
	if n != 3 {
		t.Fatalf("ticks: %d", n)
	}
}

// oneTimer is a Runtime holding one timer that never fires by itself and
// costs nothing to arm.
type oneTimer struct{ fn func() }

func (r *oneTimer) Now() time.Duration                        { return 0 }
func (r *oneTimer) After(_ time.Duration, fn func()) Canceler { r.fn = fn; return r }
func (r *oneTimer) Cancel() bool                              { return true }

// TestTickerRearmAllocs: a tick's re-arm allocates nothing of the ticker's
// own (its callback is bound once), so on the kernel a tick costs the one
// event the kernel schedules.
func TestTickerRearmAllocs(t *testing.T) {
	r := &oneTimer{}
	n := 0
	NewTicker(r, time.Second, func() { n++ }).Start()
	if allocs := testing.AllocsPerRun(100, func() { r.fn() }); allocs != 0 {
		t.Fatalf("a re-arm allocates %v times beyond the runtime's timer, want 0", allocs)
	}
	k := New(1)
	NewTicker(k, time.Second, func() { n++ }).Start()
	if allocs := testing.AllocsPerRun(100, func() { k.Step() }); allocs > 1 {
		t.Fatalf("a tick on the kernel allocates %v times, want <= 1 (its event)", allocs)
	}
	if n < 200 {
		t.Fatalf("%d ticks ran, want >= 200", n)
	}
}

func TestWallRuntime(t *testing.T) {
	w := NewWallRuntime()
	start := w.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	fired := false
	w.After(5*time.Millisecond, func() { fired = true; wg.Done() })
	wg.Wait()
	if !fired {
		t.Fatal("wall timer did not fire")
	}
	if w.Now() <= start {
		t.Fatal("wall clock did not advance")
	}
	c := w.After(time.Hour, func() {})
	if !c.Cancel() {
		t.Fatal("wall Cancel should report true for pending timer")
	}
}

func TestWallTicker(t *testing.T) {
	w := NewWallRuntime()
	var mu sync.Mutex
	n := 0
	tk := NewTicker(w, 2*time.Millisecond, func() {
		mu.Lock()
		n++
		mu.Unlock()
	})
	tk.Start()
	time.Sleep(20 * time.Millisecond)
	tk.Stop()
	mu.Lock()
	got := n
	mu.Unlock()
	if got < 2 {
		t.Fatalf("wall ticker ticks: %d", got)
	}
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	after := n
	mu.Unlock()
	if after > got+1 { // at most one in-flight tick after Stop
		t.Fatalf("ticker kept firing after Stop: %d -> %d", got, after)
	}
}
