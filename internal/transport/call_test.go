package transport

import (
	"sync"
	"testing"
	"time"

	"snooze/internal/simkernel"
)

// maxCallAllocs pins a Bus.Call round trip on the wall runtime: the call
// record, its timeout callback and timer, and the request and reply hops with
// their executor tasks.
const maxCallAllocs = 7

func TestCallRoundTripAllocs(t *testing.T) {
	b := NewBus(simkernel.NewWallRuntime(), Config{})
	b.Register("server", func(r *Request) { r.Respond(r.Payload) })
	done := make(chan error, 1)
	cb := func(_ any, err error) { done <- err }
	var payload any = 1
	allocs := testing.AllocsPerRun(1000, func() {
		b.Call("client", "server", "echo", payload, 30*time.Second, cb)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxCallAllocs {
		t.Fatalf("Call round trip: %v allocs, want <= %d", allocs, maxCallAllocs)
	}
}

// duplicatedCall drives one call whose request is delivered twice and
// checks that the handler saw two distinct requests, that both answered,
// and that the callback ran once. run returns once both replies are settled.
func duplicatedCall(t *testing.T, rt simkernel.Runtime, run func(cbDone <-chan struct{})) {
	t.Helper()
	b := NewBus(rt, Config{Latency: time.Millisecond})
	b.SetDuplication("client", 0.999)
	var mu sync.Mutex
	var seen []*Request
	handled := make(chan struct{}, 2)
	b.Register("server", func(r *Request) {
		mu.Lock()
		seen = append(seen, r)
		n := len(seen)
		mu.Unlock()
		r.Respond(n)
		handled <- struct{}{}
	})
	cbDone := make(chan struct{}, 2)
	calls := 0
	var reply any
	b.Call("client", "server", "echo", nil, time.Minute, func(rep any, err error) {
		if err != nil {
			t.Errorf("call: %v", err)
		}
		mu.Lock()
		calls++
		reply = rep
		mu.Unlock()
		cbDone <- struct{}{}
	})
	run(cbDone)
	<-handled
	<-handled
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] == seen[1] {
		t.Fatalf("handler saw %d requests, want 2 distinct ones", len(seen))
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}
	if reply != 1 && reply != 2 {
		t.Fatalf("reply %v is neither request's answer", reply)
	}
	if d, _ := b.Stats(); d != 4 {
		t.Fatalf("delivered %d messages, want 2 requests and 2 replies", d)
	}
}

func TestDuplicatedCallOnKernel(t *testing.T) {
	k := simkernel.New(1)
	duplicatedCall(t, k, func(<-chan struct{}) { k.Run(k.Now() + 2*time.Minute) })
}

func TestDuplicatedCallOnWallRuntime(t *testing.T) {
	duplicatedCall(t, simkernel.NewWallRuntime(), func(cbDone <-chan struct{}) {
		<-cbDone
		// The second reply lands 1ms after its request is answered; give it
		// time to reach the finished call and be dropped there.
		time.Sleep(50 * time.Millisecond)
	})
}

func BenchmarkBusCall(b *testing.B) {
	bus := NewBus(simkernel.NewWallRuntime(), Config{})
	bus.Register("server", func(r *Request) { r.Respond(r.Payload) })
	done := make(chan struct{}, 1)
	cb := func(any, error) { done <- struct{}{} }
	var payload any = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Call("client", "server", "echo", payload, 30*time.Second, cb)
		<-done
	}
}
