package simkernel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWallAfterZeroNeverQueues: every zero-delay callback starts at once,
// however many are still running, so callbacks that wait for one another
// all finish. A fixed-size pool would hang here.
func TestWallAfterZeroNeverQueues(t *testing.T) {
	w := NewWallRuntime()
	const n = 256
	var started atomic.Int64
	all, abort := make(chan struct{}), make(chan struct{})
	var finished sync.WaitGroup
	finished.Add(n)
	for i := 0; i < n; i++ {
		w.After(0, func() {
			defer finished.Done()
			if started.Add(1) == n {
				close(all)
			}
			select {
			case <-all:
			case <-abort:
			}
		})
	}
	done := make(chan struct{})
	go func() { finished.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		close(abort)
		t.Fatalf("only %d of %d callbacks started", started.Load(), n)
	}
}

// TestWallCancelExactlyOnce: for a zero-delay callback, exactly one of
// "Cancel returned true" and "fn ran" holds, and Cancel reports true once.
// Half the calls yield before cancelling, so both outcomes occur.
func TestWallCancelExactlyOnce(t *testing.T) {
	w := NewWallRuntime()
	const n = 10000
	var ran [n]atomic.Int32
	var runs atomic.Int64
	cancelled := make([]bool, n)
	cancels := 0
	for i := 0; i < n; i++ {
		c := w.After(0, func() { ran[i].Add(1); runs.Add(1) })
		if i%2 == 1 {
			runtime.Gosched() // let the worker race Cancel
		}
		if cancelled[i] = c.Cancel(); cancelled[i] {
			cancels++
		}
		if c.Cancel() {
			t.Fatalf("callback %d: second Cancel returned true", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < int64(n-cancels) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d uncancelled callbacks ran", runs.Load(), n-cancels)
		}
		time.Sleep(time.Millisecond)
	}
	for i := range ran {
		if got := ran[i].Load(); cancelled[i] == (got == 1) || got > 1 {
			t.Fatalf("callback %d: Cancel returned %v, fn ran %d times", i, cancelled[i], got)
		}
	}
	t.Logf("%d of %d cancelled before they started", cancels, n)

	// Once fn has started, Cancel is too late, however often it is called.
	running, release := make(chan struct{}), make(chan struct{})
	c := w.After(0, func() { close(running); <-release })
	<-running
	if c.Cancel() || c.Cancel() {
		t.Fatal("Cancel after fn started returned true")
	}
	close(release)
}

// TestWallWorkersDrain: the workers a burst started go idle, and the idle
// ones exit about a second later.
func TestWallWorkersDrain(t *testing.T) {
	w := NewWallRuntime()
	const n = 64
	var started atomic.Int64
	all := make(chan struct{})
	var finished sync.WaitGroup
	finished.Add(n)
	for i := 0; i < n; i++ {
		w.After(0, func() {
			defer finished.Done()
			if started.Add(1) == n {
				close(all)
			}
			<-all
		})
	}
	finished.Wait()
	// The n callbacks overlapped, so n distinct workers park.
	waitIdle(t, "the burst's workers to park", time.Second, func(idle int) bool { return idle >= n })
	waitIdle(t, "idle workers to exit", 3*time.Second, func(idle int) bool { return idle == 0 })
}

func waitIdle(t *testing.T, what string, within time.Duration, cond func(idle int) bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		_, idle := WallWorkers()
		if cond(idle) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %d idle", what, idle)
		}
		time.Sleep(time.Millisecond)
	}
}
