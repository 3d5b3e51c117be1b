package rest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// serveLoopback serves h on a loopback listener with a plain http.Server,
// as snoozed does; the caller shuts it down or closes it.
func serveLoopback(t *testing.T, h http.Handler) (*http.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String()
}

// outcome is what a bus call's callback got.
type outcome struct {
	reply any
	err   error
}

func callAsync(bus *transport.Bus, to transport.Address, timeout time.Duration) <-chan outcome {
	ch := make(chan outcome, 1)
	bus.Call("local", to, protocol.KindStartVM, protocol.StartVMRequest{Spec: types.VMSpec{ID: "vm-1"}}, timeout,
		func(reply any, err error) { ch <- outcome{reply, err} })
	return ch
}

func await(t *testing.T, what string, ch <-chan outcome) outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no outcome", what)
		return outcome{}
	}
}

// oneWay is a one-way request as the bus hands it to a proxy.
func oneWay(to transport.Address, payload any) *transport.Request {
	kind := protocol.KindGLHeartbeat
	if _, ok := payload.(protocol.MonitorReport); ok {
		kind = protocol.KindMonitor
	}
	return &transport.Request{Message: transport.Message{From: "mgr:gm-00", To: to, Kind: kind, Payload: payload}}
}

func startVMHandler(req *transport.Request) {
	req.Respond(protocol.StartVMResponse{OK: true, Error: string(req.Payload.(protocol.StartVMRequest).Spec.ID)})
}

// TestGatewayStreamIsFIFOPerPeer: messages the gateway takes for the
// addresses of one process leave on one stream in the order it took them.
func TestGatewayStreamIsFIFOPerPeer(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		_ = rc.Flush()
		fr := frameReader{r: bufio.NewReader(r.Body)}
		var ack []byte
		for {
			b, err := fr.next()
			if err != nil {
				return
			}
			f, err := parseFrame(b)
			if err != nil {
				t.Error(err)
				return
			}
			hb, err := protocol.DecodeRequest(string(f.kind), f.body)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got = append(got, hb.(protocol.GLHeartbeat).Epoch)
			mu.Unlock()
			ack = beginFrame(ack[:0], frameReply, 0)
			endFrame(ack, 0)
			_, _ = w.Write(ack)
			if !fr.ready() {
				_ = rc.Flush()
			}
		}
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	busA, _ := wallBus()
	gw := NewGateway(busA, 5*time.Second)
	defer gw.Close()
	const n = 2000
	gw.queueLimit = n // nothing is dropped however far ahead of the writer this runs
	gw.AddPeer("lc:a", srv.URL)
	gw.AddPeer("lc:b", srv.URL)
	pc := gw.conns[srv.URL]

	for i := uint64(1); i <= n; i++ {
		to := transport.Address("lc:a")
		if i%3 == 0 {
			to = "lc:b"
		}
		gw.forward(pc, oneWay(to, protocol.GLHeartbeat{Addr: "gl", Epoch: i}))
	}
	waitFor(t, "every frame acknowledged", func() bool { return gw.Stats().Forwards == n })
	mu.Lock()
	defer mu.Unlock()
	for i, epoch := range got {
		if epoch != uint64(i+1) {
			t.Fatalf("frame %d arrived as number %d", epoch, i+1)
		}
	}
	if s := gw.Stats(); len(got) != n || s.Dials != 1 || s.ForwardErrors != 0 {
		t.Fatalf("%d frames arrived, stats %+v", len(got), s)
	}
}

// TestGatewayBrokenStreamFailsCallsAtOnce: a call whose stream breaks fails
// as unreachable at once, not at its timeout.
func TestGatewayBrokenStreamFailsCallsAtOnce(t *testing.T) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	arrived, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	busB.Register("lc:slow", func(req *transport.Request) {
		close(arrived)
		<-release
	})
	srv := httptest.NewServer(NewServer(busB, 30*time.Second).Handler())
	defer srv.Close()
	gw := NewGateway(busA, 30*time.Second)
	defer gw.Close()
	gw.AddPeer("lc:slow", srv.URL)

	ch := callAsync(busA, "lc:slow", 30*time.Second)
	<-arrived
	broke := time.Now()
	srv.CloseClientConnections()
	o := await(t, "the call", ch)
	if took := time.Since(broke); took > 100*time.Millisecond {
		t.Fatalf("the call failed %v after its stream broke", took)
	}
	if !errors.Is(o.err, transport.ErrUnreachable) {
		t.Fatalf("err %v, want unreachable", o.err)
	}
	if s := gw.Stats(); s.BrokenCalls != 1 || s.ForwardErrors != 1 || s.Forwards != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestGatewayFallsBackToPerFramePOST: a peer without the stream route (an
// older snoozed) gets one POST /deliver per message, after one probe.
func TestGatewayFallsBackToPerFramePOST(t *testing.T) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	heard := make(chan protocol.GLHeartbeat, 4)
	busB.Register("lc:n1", func(req *transport.Request) {
		if hb, ok := req.Payload.(protocol.GLHeartbeat); ok {
			heard <- hb
			return
		}
		startVMHandler(req)
	})
	deliver := NewServer(busB, 5*time.Second).Handler()
	var streamProbes atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == streamPath {
			streamProbes.Add(1)
			http.NotFound(w, r)
			return
		}
		deliver.ServeHTTP(w, r)
	}))
	defer srv.Close()
	gw := NewGateway(busA, 5*time.Second)
	defer gw.Close()
	gw.AddPeer("lc:n1", srv.URL)

	for i := 0; i < 3; i++ {
		o := await(t, "the call", callAsync(busA, "lc:n1", 5*time.Second))
		if resp, ok := o.reply.(protocol.StartVMResponse); o.err != nil || !ok || !resp.OK || resp.Error != "vm-1" {
			t.Fatalf("call %d: %+v", i, o)
		}
	}
	if err := busA.Send("gl", "lc:n1", protocol.KindGLHeartbeat, protocol.GLHeartbeat{Addr: "gl", Epoch: 7}); err != nil {
		t.Fatal(err)
	}
	if hb := <-heard; hb.Epoch != 7 {
		t.Fatalf("heartbeat %+v", hb)
	}
	waitFor(t, "the forwards", func() bool { return gw.Stats().Forwards == 4 })
	if s := gw.Stats(); s.Fallbacks != 1 || streamProbes.Load() != 1 || s.ForwardErrors != 0 {
		t.Fatalf("stats %+v after %d probes", s, streamProbes.Load())
	}
}

// TestGatewayFullQueueDropsOneWayOldestFirst: with the stream's writer
// stuck, a full queue makes room by dropping its oldest one-way frame, and a
// queue of calls refuses the next call as unreachable at once.
func TestGatewayFullQueueDropsOneWayOldestFirst(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		_ = rc.Flush()
		<-release // reads nothing: the client's writes back up
	}))
	defer srv.Close()
	var once sync.Once
	releaseServer := func() { once.Do(func() { close(release) }) }
	defer releaseServer()
	busA, _ := wallBus()
	gw := NewGateway(busA, 5*time.Second)
	defer gw.Close()
	gw.queueLimit = 4
	gw.AddPeer("mgr:gm-00", srv.URL)
	pc := gw.conns[srv.URL]

	// Reports fill the socket buffers until the writer blocks in a write: the
	// queue is then full and stays as it is while nothing more is sent.
	big := report16()
	for len(big.VMs) < 256 {
		big.VMs = append(big.VMs, big.VMs...)
	}
	st := func() *clientStream { pc.mu.Lock(); defer pc.mu.Unlock(); return pc.st }
	queue := func() (int, *transport.Request) {
		s := st()
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.queue) == 0 {
			return 0, nil
		}
		return len(s.queue), s.queue[0].req
	}
	for i := 0; ; i++ {
		if i == 20000 {
			t.Fatal("the writer never blocked")
		}
		gw.forward(pc, oneWay("mgr:gm-00", big))
		if n, head := queue(); n == 4 {
			time.Sleep(50 * time.Millisecond)
			if n2, head2 := queue(); n2 == 4 && head2 == head {
				break
			}
		}
	}
	// Each report now drops the oldest queued one.
	for i := 0; i < 3; i++ {
		before := gw.Stats().Dropped
		_, head := queue()
		newest := oneWay("mgr:gm-00", big)
		gw.forward(pc, newest)
		st := st()
		st.mu.Lock()
		n, head2, last := len(st.queue), st.queue[0].req, st.queue[len(st.queue)-1].req
		st.mu.Unlock()
		if gw.Stats().Dropped != before+1 || n != 4 || head2 == head || last != newest {
			t.Fatalf("report %d: %d queued, dropped %d, head kept %v", i, n, gw.Stats().Dropped-before, head2 == head)
		}
	}
	// Five calls: four evict the queued one-way frames, the fifth finds only
	// calls and is refused.
	outcomes := make(chan outcome, 5)
	for i := 0; i < 5; i++ {
		busA.Call("local", "mgr:gm-00", protocol.KindGLQuery, struct{}{}, 30*time.Second,
			func(reply any, err error) { outcomes <- outcome{reply, err} })
	}
	if refused := await(t, "the refused call", outcomes); !errors.Is(refused.err, transport.ErrUnreachable) {
		t.Fatalf("refused call: %v", refused.err)
	}
	dropped := gw.Stats().Dropped
	releaseServer() // the stream ends: the four queued calls fail
	for i := 0; i < 4; i++ {
		if o := await(t, "a queued call", outcomes); !errors.Is(o.err, transport.ErrUnreachable) {
			t.Fatalf("queued call: %v", o.err)
		}
	}
	if s := gw.Stats(); s.BrokenCalls != 4 || s.Dropped != dropped || s.Forwards != s.ForwardErrors {
		t.Fatalf("stats %+v", s)
	}
}

// TestGatewayCloseLeavesNoGoroutine: Close ends the gateway's streams and
// returns once their goroutines have; later messages fail as unreachable.
func TestGatewayCloseLeavesNoGoroutine(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	busA, _ := wallBus()
	busB, _ := wallBus()
	busB.Register("lc:n1", startVMHandler)
	srv := httptest.NewServer(NewServer(busB, 5*time.Second).Handler())
	defer srv.Close()
	gw := NewGateway(busA, 5*time.Second)
	gw.AddPeer("lc:n1", srv.URL)
	if o := await(t, "the call", callAsync(busA, "lc:n1", 5*time.Second)); o.err != nil {
		t.Fatal(o.err)
	}
	gw.Close()
	if o := await(t, "the call after Close", callAsync(busA, "lc:n1", 5*time.Second)); !errors.Is(o.err, transport.ErrUnreachable) {
		t.Fatalf("call after Close: %+v", o)
	}
	if s := gw.Stats(); s.Dials != 1 {
		t.Fatalf("stats %+v", s)
	}
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestGatewayServerCloseFirstReturns: closing a server that waits for its
// handlers while a gateway's stream is open returns once the stream idles,
// and the gateway then opens a new one for the next message.
func TestGatewayServerCloseFirstReturns(t *testing.T) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	busB.Register("lc:n1", startVMHandler)
	srv := httptest.NewServer(NewServer(busB, 5*time.Second).Handler())
	gw := NewGateway(busA, 5*time.Second)
	defer gw.Close()
	gw.AddPeer("lc:n1", srv.URL)
	if o := await(t, "the call", callAsync(busA, "lc:n1", 5*time.Second)); o.err != nil {
		t.Fatal(o.err)
	}
	start := time.Now()
	srv.Close()
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("server Close took %v", took)
	}
	if o := await(t, "the call after Close", callAsync(busA, "lc:n1", 5*time.Second)); !errors.Is(o.err, transport.ErrUnreachable) {
		t.Fatalf("call to a closed server: %+v", o)
	}
}

// TestGatewayOrphanedDialsNothing: a gateway whose peers are gone and that
// is never closed keeps no goroutine and dials nothing once its last message
// has failed.
func TestGatewayOrphanedDialsNothing(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	busA, _ := wallBus()
	gw := NewGateway(busA, 5*time.Second)
	var servers []*http.Server
	for _, addr := range []transport.Address{"lc:a", "lc:b"} {
		busB, _ := wallBus()
		busB.Register(addr, startVMHandler)
		srv, url := serveLoopback(t, NewServer(busB, 5*time.Second).Handler())
		servers = append(servers, srv)
		gw.AddPeer(addr, url)
		if o := await(t, "the call", callAsync(busA, addr, 5*time.Second)); o.err != nil {
			t.Fatal(o.err)
		}
	}
	for _, srv := range servers {
		srv.Close()
	}
	for _, addr := range []transport.Address{"lc:a", "lc:b"} {
		if o := await(t, "the last call", callAsync(busA, addr, 5*time.Second)); !errors.Is(o.err, transport.ErrUnreachable) {
			t.Fatalf("call to a gone peer: %+v", o)
		}
	}
	dials := gw.Stats().Dials
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
	time.Sleep(2 * streamIdle)
	if s := gw.Stats(); s.Dials != dials || runtime.NumGoroutine() > goroutines {
		t.Fatalf("orphaned gateway: stats %+v, %d goroutines (baseline %d)", s, runtime.NumGoroutine(), goroutines)
	}
}

// TestGatewayShutdownClosesStreams: http.Server.Shutdown with a peer's
// stream open returns at once instead of at its deadline, and a message
// queued just before the close frame is still delivered.
func TestGatewayShutdownClosesStreams(t *testing.T) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	heard := make(chan uint64, 4)
	busB.Register("lc:n1", func(req *transport.Request) {
		if hb, ok := req.Payload.(protocol.GLHeartbeat); ok {
			heard <- hb.Epoch
			return
		}
		startVMHandler(req)
	})
	srv, url := serveLoopback(t, NewServer(busB, 5*time.Second).Handler())
	defer srv.Close()
	gw := NewGateway(busA, 5*time.Second)
	defer gw.Close()
	gw.AddPeer("lc:n1", url)
	if o := await(t, "the call", callAsync(busA, "lc:n1", 5*time.Second)); o.err != nil {
		t.Fatal(o.err)
	}

	gw.forward(gw.conns[url], oneWay("lc:n1", protocol.GLHeartbeat{Addr: "gl", Epoch: 9}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Shutdown took %v", took)
	}
	select {
	case epoch := <-heard:
		if epoch != 9 {
			t.Fatalf("heard epoch %d", epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the message queued before the close frame was lost")
	}
	if s := gw.Stats(); s.Forwards != 2 || s.ForwardErrors != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// FuzzStreamFrame: bytes arriving on a stream, whatever they are, end the
// server's stream cleanly. Every frame the reader accepts has exactly the
// encoding the writers produce, and every message frame the server read is
// answered by exactly one reply frame when the body ended between frames.
// testdata/fuzz holds truncated, oversize, garbage and well-formed streams.
func FuzzStreamFrame(f *testing.F) {
	seed := func(id uint64, to transport.Address, kind string, payload any) []byte {
		req := &transport.Request{Message: transport.Message{From: "mgr:gm-00", To: to, Kind: kind, Payload: payload}}
		b, err := appendMessage(nil, id, req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	hb := seed(0, "lc:n1", protocol.KindGLHeartbeat, protocol.GLHeartbeat{Addr: "gl", Epoch: 3})
	call := seed(5, "lc:n1", protocol.KindStartVM, protocol.StartVMRequest{Spec: types.VMSpec{ID: "vm-1"}})
	f.Add(hb)
	f.Add(call)
	f.Add(append(append([]byte(nil), hb...), call...))
	f.Add(seed(0, "ghost", protocol.KindMonitor, report16()))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reader.
		fr := frameReader{r: bufio.NewReader(bytes.NewReader(data))}
		messages, calls := 0, map[uint64]int{}
		clean := false
		for {
			b, err := fr.next()
			if err != nil {
				clean = err == io.EOF
				break
			}
			fm, err := parseFrame(b)
			if err != nil {
				break
			}
			re := beginFrame(nil, fm.typ, fm.id)
			if fm.typ == frameCall || fm.typ == frameOneWay {
				re = appendName(re, string(fm.from))
				re = appendName(re, string(fm.to))
				re = appendName(re, string(fm.kind))
			}
			re = append(re, fm.body...)
			if !endFrame(re, 0) || !bytes.Equal(re[4:], b) {
				t.Fatalf("frame %q re-encodes as %q", b, re[4:])
			}
			if fm.typ != frameCall && fm.typ != frameOneWay {
				break // the server stops at a frame only servers send
			}
			messages++
			if fm.typ == frameCall {
				calls[fm.id]++
			}
		}

		// The server.
		bus, _ := wallBus()
		bus.Register("lc:n1", func(req *transport.Request) { req.Respond(struct{}{}) })
		var out bytes.Buffer
		NewServer(bus, time.Second).serveStream(&out, func() error { return nil }, bytes.NewReader(data), nil)
		replies := frameReader{r: bufio.NewReader(&out)}
		answers, acks := map[uint64]int{}, 0
		for {
			b, err := replies.next()
			if err != nil {
				if err != io.EOF {
					t.Fatalf("the server wrote a bad frame: %v", err)
				}
				break
			}
			fm, err := parseFrame(b)
			if err != nil || fm.typ < frameReply || fm.typ > frameRefused {
				t.Fatalf("the server wrote frame %q (%v)", b, err)
			}
			if fm.id == 0 {
				acks++
			} else {
				answers[fm.id]++
			}
		}
		if !clean {
			return // calls still on the bus when the stream broke are not answered
		}
		for id, n := range calls {
			if answers[id] != n {
				t.Fatalf("call %d: %d frames, %d answers", id, n, answers[id])
			}
		}
		if got := acks + sum(answers); got != messages {
			t.Fatalf("%d message frames, %d answered", messages, got)
		}
	})
}

func sum(m map[uint64]int) (n int) {
	for _, v := range m {
		n += v
	}
	return n
}

// BenchmarkGatewayCall is one request-response round trip through a
// gateway's stream: lc.start-vm out, its reply back.
func BenchmarkGatewayCall(b *testing.B) {
	busA, _ := wallBus()
	busB, _ := wallBus()
	busB.Register("lc:n000", startVMHandler)
	srv := httptest.NewServer(NewServer(busB, time.Second).Handler())
	defer srv.Close()
	gw := NewGateway(busA, 5*time.Second)
	defer gw.Close()
	gw.AddPeer("lc:n000", srv.URL)
	var payload any = protocol.StartVMRequest{Spec: types.VMSpec{ID: "vm-1", Requested: types.RV(1, 1024, 10, 10)}}
	done := make(chan error, 1)
	cb := func(_ any, err error) { done <- err }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		busA.Call("mgr:gm-00", "lc:n000", protocol.KindStartVM, payload, 5*time.Second, cb)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}
