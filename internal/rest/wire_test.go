package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// marshalEnvelope is the parent's encoder: payload, then envelope, through
// encoding/json. appendEnvelope must produce its bytes.
func marshalEnvelope(t testing.TB, from, to, kind string, oneWay bool, payload any) []byte {
	t.Helper()
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Envelope{From: from, To: to, Kind: kind, OneWay: oneWay, Payload: data})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

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

// TestEnvelopeMatchesMarshal pins wire compatibility: frames are
// byte-identical to the two-pass encoding/json frames of earlier versions,
// and the one-pass split reads them back as json.Unmarshal does.
func TestEnvelopeMatchesMarshal(t *testing.T) {
	cases := []struct {
		from, to, kind string
		oneWay         bool
		payload        any
		split          bool // the shape splitEnvelope accepts
	}{
		{"lc:n000", "mgr:gm-00", protocol.KindMonitor, true, report16(), true},
		{"mgr:gm-00", "lc:n000", protocol.KindGMHeartbeat, true, protocol.GMHeartbeat{GM: "gm-00", Addr: "mgr:gm-00"}, true},
		{"mgr:gm-00", "lc:n000", protocol.KindGLHeartbeat, true, protocol.GLHeartbeat{Addr: "mgr:gm-00", Epoch: 2}, true},
		{"mgr:gm-00", "lc:n000", protocol.KindStartVM, false, protocol.StartVMRequest{Spec: types.VMSpec{ID: "vm-1"}}, true},
		{"cli", "ep:0", protocol.KindGLQuery, false, struct{}{}, true},
		{"cli", "ep:0", protocol.KindRejoin, true, nil, true},
		{"", "", "", false, struct{}{}, true},
		{"api", "mgr:gm-00", protocol.KindSubmit, false, protocol.SubmitRequest{VMs: []types.VMSpec{{ID: "<vm&1>"}}}, true},
		{`lc:"n1"`, "mgr:gm-00", protocol.KindGMHeartbeat, true, protocol.GMHeartbeat{}, false},
		{"lc:n1", "mgr:<gm>", protocol.KindGMHeartbeat, false, protocol.GMHeartbeat{}, false},
		{"lc:n1", "mgr:gm\u2028", "k\xff", false, protocol.GMHeartbeat{}, false},
	}
	for _, c := range cases {
		want := marshalEnvelope(t, c.from, c.to, c.kind, c.oneWay, c.payload)
		got, err := appendEnvelope([]byte("prefix"), c.from, c.to, c.kind, c.oneWay, c.payload)
		if err != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("appendEnvelope:\n got %s (err %v)\nwant %s", got, err, want)
		}
		var ref, env Envelope
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		ok := splitEnvelope(want, &env)
		if ok != c.split {
			t.Fatalf("splitEnvelope(%s) = %v, want %v", want, ok, c.split)
		}
		if ok && !reflect.DeepEqual(env, ref) {
			t.Fatalf("splitEnvelope(%s):\n got %+v\nwant %+v", want, env, ref)
		}
	}
	if _, err := appendEnvelope(nil, "a", "b", protocol.KindPlace, false, make(chan int)); err == nil {
		t.Fatal("appendEnvelope accepted a payload that does not marshal")
	}
}

// sameDelivery fails unless decodeDelivery and its encoding/json reference
// agree on body: same header and payload, or an error from both.
func sameDelivery(t *testing.T, body []byte) {
	t.Helper()
	pristine := bytes.Clone(body)
	env, payload, err := decodeDelivery(body)
	if !bytes.Equal(body, pristine) {
		t.Fatal("decodeDelivery wrote to its input")
	}
	refEnv, refPayload, refErr := decodeDeliveryJSON(body)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%q: error %v, encoding/json error %v", body, err, refErr)
	}
	if err == nil && (!reflect.DeepEqual(env, refEnv) || !reflect.DeepEqual(payload, refPayload)) {
		t.Fatalf("%q:\n got %+v %#v\nwant %+v %#v", body, env, payload, refEnv, refPayload)
	}
	// The values must not alias the request buffer.
	for i := range body {
		body[i] = 'X'
	}
	if err == nil && (!reflect.DeepEqual(env, refEnv) || !reflect.DeepEqual(payload, refPayload)) {
		t.Fatalf("%q: decoded delivery changed with its input buffer", pristine)
	}
}

// FuzzEnvelope: the one-pass split either defers to encoding/json or agrees
// with it. Seeds: the encoder's own frames; testdata/fuzz holds the foreign
// shapes (reordered keys, escapes, whitespace, unknown and duplicate fields,
// trailing garbage).
func FuzzEnvelope(f *testing.F) {
	f.Add(marshalEnvelope(f, "lc:n000", "mgr:gm-00", protocol.KindMonitor, true, report16()))
	f.Add(marshalEnvelope(f, "mgr:gm-00", "lc:n000", protocol.KindGMHeartbeat, true, protocol.GMHeartbeat{GM: "gm-00", Addr: "mgr:gm-00"}))
	f.Add(marshalEnvelope(f, "mgr:gm-00", "lc:n000", protocol.KindStartVM, false, protocol.StartVMRequest{Spec: types.VMSpec{ID: "vm-1"}}))
	f.Add(marshalEnvelope(f, "cli", "ep:0", protocol.KindGLQuery, false, struct{}{}))
	f.Fuzz(func(t *testing.T, body []byte) {
		var env Envelope
		if splitEnvelope(body, &env) && json.Valid(env.Payload) {
			var ref Envelope
			if err := json.Unmarshal(body, &ref); err != nil || !reflect.DeepEqual(env, ref) {
				t.Fatalf("splitEnvelope(%q) = %+v, json.Unmarshal = %+v (err %v)", body, env, ref, err)
			}
		}
		sameDelivery(t, body)
	})
}

// TestDeliverStatusCodes: the answers to frames nobody should send are
// unchanged, and frames of a foreign shape are delivered like local ones.
func TestDeliverStatusCodes(t *testing.T) {
	bus, _ := wallBus()
	got := make(chan protocol.GMHeartbeat, 8)
	bus.Register("lc:n1", func(req *transport.Request) {
		got <- req.Payload.(protocol.GMHeartbeat)
		if !req.OneWay() {
			req.Respond(struct{}{})
		}
	})
	srv := httptest.NewServer(NewServer(bus, time.Second).Handler())
	defer srv.Close()

	hb := `{"gm":"gm-00","addr":"mgr:gm-00"}`
	cases := []struct {
		name      string
		body      string
		status    int
		errPart   string
		delivered bool
	}{
		{"one-way", `{"from":"a","to":"lc:n1","kind":"gm.heartbeat","oneWay":true,"payload":` + hb + `}`, 202, "", true},
		{"call", `{"from":"a","to":"lc:n1","kind":"gm.heartbeat","payload":` + hb + `}`, 200, "", true},
		{"reordered keys", `{"payload":{"addr":"mgr:gm-00","gm":"gm-00"},"oneWay":true,"kind":"gm.heartbeat","to":"lc:n1","from":"a"}`, 202, "", true},
		{"whitespace and escapes", "{ \"from\": \"a\", \"to\": \"lc:n\\u0031\", \"kind\": \"gm.heartbeat\", \"oneWay\": true,\n \"payload\": " + hb + " }\n", 202, "", true},
		{"unknown fields", `{"from":"a","to":"lc:n1","kind":"gm.heartbeat","oneWay":true,"payload":` + hb + `,"hop":3}`, 202, "", true},
		{"not json", `{"from":`, 400, "bad envelope", false},
		{"trailing garbage", `{"from":"a","to":"lc:n1","kind":"gm.heartbeat","oneWay":true,"payload":` + hb + `}}`, 400, "bad envelope", false},
		{"bad payload", `{"from":"a","to":"lc:n1","kind":"gm.heartbeat","oneWay":true,"payload":{"gm":7}}`, 400, "", false},
		{"garbage payload of a kind without one", `{"from":"a","to":"lc:n1","kind":"gm.inventory","payload":nope}`, 400, "bad envelope", false},
		{"unknown kind", `{"from":"a","to":"lc:n1","kind":"bogus","payload":{}}`, 400, "unknown request kind", false},
		{"unknown destination, one-way", `{"from":"a","to":"ghost","kind":"gm.heartbeat","oneWay":true,"payload":` + hb + `}`, 404, "unreachable", false},
		{"unknown destination, call", `{"from":"a","to":"ghost","kind":"gm.heartbeat","payload":` + hb + `}`, 404, "unreachable", false},
		{"too large", `{"from":"a","to":"lc:n1","kind":"gm.heartbeat","payload":"` + strings.Repeat("x", maxEnvelopeBytes) + `"}`, 413, "bad envelope", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/deliver", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.status || !strings.Contains(string(data), c.errPart) {
				t.Fatalf("status %d body %q, want %d containing %q", resp.StatusCode, data, c.status, c.errPart)
			}
			if c.status == http.StatusAccepted {
				// An empty body is not JSON and says so by saying nothing.
				if len(data) != 0 || resp.Header.Get("Content-Type") != "" {
					t.Fatalf("202 carries body %q, Content-Type %q", data, resp.Header.Get("Content-Type"))
				}
			} else if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
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
	// What a client makes of a 202: nothing, without complaint.
	frame, err := decodeFrame(&http.Response{StatusCode: http.StatusAccepted, Body: http.NoBody})
	if err != nil || frame.Payload != nil || frame.Error != "" {
		t.Fatalf("decodeFrame(202, no body) = %+v, %v", frame, err)
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

// TestGatewayReusesConnections: bursts as wide as the pool dial about that
// many connections once, later bursts dial none, and nothing outlives the
// remote listener and Close.
func TestGatewayReusesConnections(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	busA, _ := wallBus()
	busB, _ := wallBus()
	var delivered atomic.Int64
	busB.Register("lc:n1", func(*transport.Request) { delivered.Add(1) })
	srv := httptest.NewServer(NewServer(busB, time.Second).Handler())
	gw := NewGateway(busA, 5*time.Second)
	gw.AddPeer("lc:n1", srv.URL)

	const senders, rounds = idleConnsPerPeer, 50
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
	// Each sender of the first round dials; a dial still in flight when its
	// sender was handed a freed connection instead can leave the next round
	// one connection short, so a few more are legitimate. Without the pool it
	// is one per message beyond the default two (some 700 here).
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

func BenchmarkEnvelopeSplit(b *testing.B) {
	body := marshalEnvelope(b, "lc:n000", "mgr:gm-00", protocol.KindMonitor, true, report16())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var env Envelope
		if !splitEnvelope(body, &env) {
			b.Fatal("refused")
		}
	}
}

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
