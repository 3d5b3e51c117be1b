package rest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/transport"
	"snooze/internal/types"
)

func report16() protocol.MonitorReport {
	st := types.NodeStatus{Spec: types.NodeSpec{ID: "n000", Capacity: types.RV(16, 65536, 1000, 1000)}, Generation: 1}
	r := protocol.MonitorReport{AtNs: 1}
	for i := 0; i < 16; i++ {
		spec := types.VMSpec{ID: types.VMID(fmt.Sprintf("n000-vm%03d", i)), Requested: types.RV(1.5, 4096, 10, 10)}
		st.VMs = append(st.VMs, spec.ID)
		st.Used = st.Used.Add(spec.Requested)
		st.Reserved = st.Reserved.Add(spec.Requested)
		r.VMs = append(r.VMs, types.VMStatus{Spec: spec, State: types.VMRunning, Node: st.Spec.ID, Used: spec.Requested})
	}
	r.Status = st
	return r
}

// TestStreamAnswers: the server answers each message frame on a stream with
// the one reply frame its fate calls for, and a length over the cap ends the
// stream without a frame.
func TestStreamAnswers(t *testing.T) {
	bus, _ := wallBus()
	got := make(chan protocol.GMHeartbeat, 8)
	bus.Register("lc:n1", func(req *transport.Request) {
		got <- req.Payload.(protocol.GMHeartbeat)
		if !req.OneWay() {
			req.Respond(struct{}{})
		}
	})
	bus.Register("lc:boom", func(req *transport.Request) { req.RespondErr(errFixture) })
	srv := httptest.NewServer(NewServer(bus, time.Second).Handler())
	defer srv.Close()

	// message is a hand-built message frame: a call if id > 0.
	message := func(id uint64, to, kind, body string) []byte {
		typ := frameCall
		if id == 0 {
			typ = frameOneWay
		}
		b := beginFrame(nil, typ, id)
		for _, name := range []string{"a", to, kind} {
			b = append(b, byte(len(name)))
			b = append(b, name...)
		}
		b = append(b, body...)
		endFrame(b, 0)
		return b
	}
	hb := `{"gm":"gm-00","addr":"mgr:gm-00"}`
	overCap := []byte{0, 0x10, 0, 1, frameOneWay} // a length of maxFrameBytes+1
	cases := []struct {
		name      string
		stream    []byte
		typ       byte // 0: no frame at all
		id        uint64
		text      string // the reply body contains it
		delivered bool
	}{
		{"one-way", message(0, "lc:n1", protocol.KindGMHeartbeat, hb), frameReply, 0, "", true},
		{"call", message(7, "lc:n1", protocol.KindGMHeartbeat, hb), frameReply, 7, "{}", true},
		{"handler error", message(3, "lc:boom", protocol.KindGMHeartbeat, hb), frameFailed, 3, "fixture error", false},
		{"unknown destination, one-way", message(0, "ghost", protocol.KindGMHeartbeat, hb), frameUnreachable, 0, protocol.KindGMHeartbeat + ": transport: destination unreachable: ghost", false},
		{"unknown destination, call", message(2, "ghost", protocol.KindGMHeartbeat, hb), frameUnreachable, 2, "unreachable", false},
		{"bad payload", message(0, "lc:n1", protocol.KindGMHeartbeat, `{"gm":7}`), frameRefused, 0, protocol.KindGMHeartbeat + ": bad frame", false},
		{"unknown kind", message(4, "lc:n1", "bogus", `{}`), frameRefused, 4, "unknown request kind", false},
		{"too large", append(overCap, make([]byte, maxFrameBytes)...), 0, 0, "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+streamPath, streamContentType, bytes.NewReader(c.stream))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != streamContentType {
				t.Fatalf("status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
			}
			fr := frameReader{r: bufio.NewReader(resp.Body)}
			var replies []frame
			for {
				b, err := fr.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				f, err := parseFrame(b)
				if err != nil {
					t.Fatalf("reply %q: %v", b, err)
				}
				if f.typ != frameClose {
					f.body = bytes.Clone(f.body)
					replies = append(replies, f)
				}
			}
			switch {
			case c.typ == 0 && len(replies) != 0:
				t.Fatalf("%d reply frames, want none", len(replies))
			case c.typ == 0:
			case len(replies) != 1:
				t.Fatalf("%d reply frames, want 1", len(replies))
			case replies[0].typ != c.typ || replies[0].id != c.id || !strings.Contains(string(replies[0].body), c.text):
				f := replies[0]
				t.Fatalf("reply type %d ID %d body %q, want type %d ID %d containing %q", f.typ, f.id, f.body, c.typ, c.id, c.text)
			}
			if c.delivered {
				select {
				case v := <-got:
					if v.GM != "gm-00" || v.Addr != "mgr:gm-00" {
						t.Fatalf("delivered %+v", v)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("not delivered")
				}
			}
		})
	}
	select {
	case v := <-got:
		t.Fatalf("delivered %+v from a frame that should not be", v)
	default:
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestGatewayReusesConnections: bursts of 16 concurrent senders to one peer
// share its stream, so the first dials about once and later bursts, which
// come before the stream idles, dial none; nothing outlives the remote
// listener and Close.
func TestGatewayReusesConnections(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	busA, _ := wallBus()
	busB, _ := wallBus()
	var delivered atomic.Int64
	busB.Register("lc:n1", func(*transport.Request) { delivered.Add(1) })
	srv := httptest.NewServer(NewServer(busB, time.Second).Handler())
	gw := NewGateway(busA, 5*time.Second)
	gw.AddPeer("lc:n1", srv.URL)

	const senders, rounds = 16, 50
	wave := func() {
		base := gw.Stats().Forwards
		for r := 1; r <= rounds; r++ {
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := busA.Send("mgr:gm-00", "lc:n1", protocol.KindGMHeartbeat, protocol.GMHeartbeat{GM: "gm-00", Addr: "mgr:gm-00"}); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			waitFor(t, "the round's forwards", func() bool { return gw.Stats().Forwards == base+uint64(r*senders) })
		}
	}
	wave()
	// The first message dials the stream and the others queue on it; a
	// redial is legitimate only when the stream ended between rounds, which
	// these rounds, far quicker than the stream's idle limit, do not allow
	// often. One connection per message would be 800 here.
	first := gw.Stats()
	if first.Dials == 0 || first.Dials > 2*senders {
		t.Fatalf("first wave dialed %d connections, want 1..%d", first.Dials, 2*senders)
	}
	wave()
	second := gw.Stats()
	if second.Dials != first.Dials {
		t.Fatalf("second wave dialed %d more connections, want 0", second.Dials-first.Dials)
	}
	if second.Forwards != 2*senders*rounds || second.ForwardErrors != 0 {
		t.Fatalf("stats %+v", second)
	}
	waitFor(t, "deliveries", func() bool { return delivered.Load() == 2*senders*rounds })

	srv.Close()
	gw.Close()
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestGatewayCountsAndSurvivesErrorFrames: a one-way message the remote
// server refuses is counted, and its unread error frame does not cost the
// connection.
func TestGatewayCountsAndSurvivesErrorFrames(t *testing.T) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	srv := httptest.NewServer(NewServer(busB, time.Second).Handler())
	defer srv.Close()
	gw := NewGateway(busA, 5*time.Second)
	defer gw.Close()
	gw.AddPeer("ghost", srv.URL) // registered locally, absent on B: every frame is answered 404

	const n = 40
	for i := 1; i <= n; i++ {
		if err := busA.Send("mgr:gm-00", "ghost", protocol.KindGMHeartbeat, protocol.GMHeartbeat{}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the forward", func() bool { return gw.Stats().Forwards == uint64(i) })
	}
	// The connection returns to the pool a moment after the body is read, so
	// an occasional redial is legitimate; one per message is not.
	if s := gw.Stats(); s.ForwardErrors != n || s.Dials > n/2 {
		t.Fatalf("stats %+v, want %d forward errors over at most %d connections", s, n, n/2)
	}

	// A dead remote process counts too.
	dead := httptest.NewServer(NewServer(busB, time.Second).Handler())
	gw.AddPeer("dead", dead.URL)
	dead.Close()
	if err := busA.Send("mgr:gm-00", "dead", protocol.KindGMHeartbeat, protocol.GMHeartbeat{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the forward", func() bool { return gw.Stats().Forwards == n+1 })
	if s := gw.Stats(); s.ForwardErrors != n+1 {
		t.Fatalf("stats %+v", s)
	}
}

// The micro gate of the wire path's rest layer (BENCH_telemetry.json).

// BenchmarkGatewayForward is one one-way monitor report through a gateway
// proxy to a loopback server and into the remote bus handler.
func BenchmarkGatewayForward(b *testing.B) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	done := make(chan struct{}, 1)
	busB.Register("mgr:gm-00", func(*transport.Request) { done <- struct{}{} })
	srv := httptest.NewServer(NewServer(busB, time.Second).Handler())
	defer srv.Close()
	gw := NewGateway(busA, 5*time.Second)
	defer gw.Close()
	gw.AddPeer("mgr:gm-00", srv.URL)
	var payload any = report16()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := busA.Send("lc:n000", "mgr:gm-00", protocol.KindMonitor, payload); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}
