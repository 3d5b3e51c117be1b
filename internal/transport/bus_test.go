package transport

import (
	"errors"
	"testing"
	"time"

	"snooze/internal/simkernel"
)

func newBus() (*Bus, *simkernel.Kernel) {
	k := simkernel.New(1)
	return NewBus(k, Config{Latency: time.Millisecond}), k
}

func TestSendDelivers(t *testing.T) {
	b, k := newBus()
	var got *Request
	b.Register("dst", func(r *Request) { got = r })
	if err := b.Send("src", "dst", "ping", 42); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("delivered synchronously, want latency")
	}
	k.Run(time.Second)
	if got == nil || got.Kind != "ping" || got.Payload.(int) != 42 || got.From != "src" {
		t.Fatalf("delivery: %+v", got)
	}
	if !got.OneWay() {
		t.Fatal("Send should produce a one-way request")
	}
	d, dr := b.Stats()
	if d != 1 || dr != 0 {
		t.Fatalf("stats: %d %d", d, dr)
	}
}

func TestSendUnregistered(t *testing.T) {
	b, _ := newBus()
	if err := b.Send("src", "nope", "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err: %v", err)
	}
	_, dr := b.Stats()
	if dr != 1 {
		t.Fatalf("dropped: %d", dr)
	}
}

func TestCallRoundTrip(t *testing.T) {
	b, k := newBus()
	b.Register("server", func(r *Request) {
		r.Respond(r.Payload.(int) * 2)
	})
	var reply any
	var err error
	b.Call("client", "server", "double", 21, time.Second, func(rep any, e error) { reply, err = rep, e })
	k.Run(time.Second)
	if err != nil || reply.(int) != 42 {
		t.Fatalf("call: %v %v", reply, err)
	}
}

func TestCallErrorReply(t *testing.T) {
	b, k := newBus()
	sentinel := errors.New("boom")
	b.Register("server", func(r *Request) { r.RespondErr(sentinel) })
	var err error
	b.Call("client", "server", "x", nil, time.Second, func(_ any, e error) { err = e })
	k.Run(time.Second)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err: %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	b, k := newBus()
	b.Register("server", func(r *Request) { /* never responds */ })
	var err error
	called := 0
	b.Call("client", "server", "x", nil, 50*time.Millisecond, func(_ any, e error) { err, called = e, called+1 })
	k.Run(time.Second)
	if !errors.Is(err, ErrTimeout) || called != 1 {
		t.Fatalf("timeout: %v calls=%d", err, called)
	}
}

func TestCallToUnreachableFailsFast(t *testing.T) {
	b, k := newBus()
	var err error
	b.Call("client", "ghost", "x", nil, time.Minute, func(_ any, e error) { err = e })
	k.Run(time.Second)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err: %v", err)
	}
}

func TestRespondOnce(t *testing.T) {
	b, k := newBus()
	b.Register("server", func(r *Request) {
		r.Respond(1)
		r.Respond(2)
		r.RespondErr(errors.New("late"))
	})
	replies := 0
	var last any
	b.Call("client", "server", "x", nil, time.Second, func(rep any, e error) {
		replies++
		last = rep
	})
	k.Run(time.Second)
	if replies != 1 || last.(int) != 1 {
		t.Fatalf("replies=%d last=%v", replies, last)
	}
}

func TestCrashedDestination(t *testing.T) {
	b, k := newBus()
	got := false
	b.Register("dst", func(*Request) { got = true })
	b.SetDown("dst", true)
	if !b.IsDown("dst") {
		t.Fatal("IsDown")
	}
	if err := b.Send("src", "dst", "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send to crashed: %v", err)
	}
	k.Run(time.Second)
	if got {
		t.Fatal("crashed endpoint received message")
	}
	// Recovery restores delivery.
	b.SetDown("dst", false)
	b.Send("src", "dst", "x", nil)
	k.Run(2 * time.Second)
	if !got {
		t.Fatal("recovered endpoint missed message")
	}
}

func TestCrashInFlight(t *testing.T) {
	b, k := newBus()
	got := false
	b.Register("dst", func(*Request) { got = true })
	b.Send("src", "dst", "x", nil) // in flight for 1ms
	b.SetDown("dst", true)         // crashes before delivery
	k.Run(time.Second)
	if got {
		t.Fatal("message delivered to endpoint that crashed in flight")
	}
}

func TestResponseLostWhenCallerCrashes(t *testing.T) {
	b, k := newBus()
	b.Register("server", func(r *Request) {
		b.SetDown("client", true) // caller dies while request is being served
		r.Respond("late reply")
	})
	b.Register("client", func(*Request) {})
	var err error
	got := false
	b.Call("client", "server", "x", nil, 100*time.Millisecond, func(rep any, e error) {
		got, err = rep != nil, e
	})
	k.Run(time.Second)
	// The callback still fires (timeout) but never with the reply payload.
	if got || !errors.Is(err, ErrTimeout) {
		t.Fatalf("got=%v err=%v", got, err)
	}
}

func TestPartition(t *testing.T) {
	b, k := newBus()
	gotA, gotB := 0, 0
	b.Register("a", func(*Request) { gotA++ })
	b.Register("b", func(*Request) { gotB++ })
	b.SetPartition("a", 1)
	b.SetPartition("b", 2)
	if err := b.Send("a", "b", "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-partition send: %v", err)
	}
	// Same partition works.
	b.SetPartition("b", 1)
	if err := b.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if gotB != 1 {
		t.Fatalf("same-partition delivery: %d", gotB)
	}
	// Healing restores default connectivity.
	b.ClearPartitions()
	b.Send("a", "b", "x", nil)
	k.Run(2 * time.Second)
	if gotB != 2 {
		t.Fatalf("after heal: %d", gotB)
	}
}

func TestDropProbability(t *testing.T) {
	k := simkernel.New(7)
	b := NewBus(k, Config{Latency: time.Microsecond, Seed: 7})
	got := 0
	b.Register("dst", func(*Request) { got++ })
	b.SetDropProbability(0.5)
	const n = 1000
	for i := 0; i < n; i++ {
		b.Send("src", "dst", "x", nil)
	}
	k.Run(time.Second)
	if got < 350 || got > 650 {
		t.Fatalf("with 50%% drop, delivered %d of %d", got, n)
	}
	// Bounds clamp without panicking.
	b.SetDropProbability(-1)
	b.SetDropProbability(2)
}

func TestMulticast(t *testing.T) {
	b, k := newBus()
	got := map[Address]int{}
	for _, a := range []Address{"m1", "m2", "m3"} {
		a := a
		b.Register(a, func(*Request) { got[a]++ })
		b.JoinGroup("heartbeat", a)
	}
	// Sender does not receive its own multicast.
	b.Multicast("m1", "heartbeat", "hb", nil)
	k.Run(time.Second)
	if got["m1"] != 0 || got["m2"] != 1 || got["m3"] != 1 {
		t.Fatalf("multicast: %v", got)
	}
	// Leaving stops delivery.
	b.LeaveGroup("heartbeat", "m3")
	b.Multicast("m1", "heartbeat", "hb", nil)
	k.Run(2 * time.Second)
	if got["m3"] != 1 || got["m2"] != 2 {
		t.Fatalf("after leave: %v", got)
	}
	members := b.GroupMembers("heartbeat")
	if len(members) != 2 {
		t.Fatalf("members: %v", members)
	}
	// Multicast to an empty/unknown group is a no-op.
	b.Multicast("m1", "ghost-group", "hb", nil)
}

func TestMulticastSkipsCrashed(t *testing.T) {
	b, k := newBus()
	got := 0
	b.Register("up", func(*Request) { got++ })
	b.Register("down", func(*Request) { t.Error("crashed member got multicast") })
	b.JoinGroup("g", "up")
	b.JoinGroup("g", "down")
	b.SetDown("down", true)
	b.Multicast("sender", "g", "hb", nil)
	k.Run(time.Second)
	if got != 1 {
		t.Fatalf("up member deliveries: %d", got)
	}
}

func TestUnregisterRemovesFromGroups(t *testing.T) {
	b, k := newBus()
	b.Register("x", func(*Request) { t.Error("unregistered endpoint received") })
	b.JoinGroup("g", "x")
	b.Unregister("x")
	if len(b.GroupMembers("g")) != 0 {
		t.Fatal("unregister left group membership")
	}
	b.Multicast("y", "g", "hb", nil)
	k.Run(time.Second)
}

func TestJitterWithinBounds(t *testing.T) {
	k := simkernel.New(3)
	b := NewBus(k, Config{Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 3})
	var deliveredAt []time.Duration
	b.Register("dst", func(*Request) { deliveredAt = append(deliveredAt, k.Now()) })
	for i := 0; i < 100; i++ {
		b.Send("src", "dst", "x", nil)
	}
	k.Run(time.Second)
	if len(deliveredAt) != 100 {
		t.Fatalf("deliveries: %d", len(deliveredAt))
	}
	for _, at := range deliveredAt {
		if at < time.Millisecond || at >= 2*time.Millisecond {
			t.Fatalf("delivery at %v outside [1ms,2ms)", at)
		}
	}
}

func TestCallNilCallbackActsAsSend(t *testing.T) {
	b, k := newBus()
	got := false
	b.Register("dst", func(r *Request) { got = true })
	b.Call("src", "dst", "x", nil, time.Second, nil)
	k.Run(time.Second)
	if !got {
		t.Fatal("nil-callback Call not delivered")
	}
}

func TestCallCancelsTimeoutTimerOnCompletion(t *testing.T) {
	b, k := newBus()
	const timeout = 90 * time.Second
	drop := false
	b.Register("server", func(r *Request) {
		if !drop {
			r.Respond(r.Payload)
		}
	})
	before := k.Pending()
	answered, timeouts := 0, 0
	cb := func(_ any, err error) {
		if errors.Is(err, ErrTimeout) {
			timeouts++
		} else if err == nil {
			answered++
		}
	}
	for i := 0; i < 1000; i++ {
		b.Call("client", "server", "echo", i, timeout, cb)
	}
	k.Run(k.Now() + time.Second)
	if answered != 1000 {
		t.Fatalf("answered %d of 1000 calls", answered)
	}
	if got := k.Pending(); got != before {
		t.Fatalf("pending events after 1000 answered calls: %d, want %d", got, before)
	}
	processed := k.Processed()
	k.Run(k.Now() + 2*timeout)
	if fired := k.Processed() - processed; fired != 0 || timeouts != 0 {
		t.Fatalf("answered calls left %d events behind (%d timeouts)", fired, timeouts)
	}

	// A dropped reply still times out, exactly once.
	drop = true
	b.Call("client", "server", "echo", 0, timeout, cb)
	k.Run(k.Now() + 2*timeout)
	if timeouts != 1 || k.Pending() != before {
		t.Fatalf("dropped reply: %d timeouts, %d pending", timeouts, k.Pending())
	}
}
