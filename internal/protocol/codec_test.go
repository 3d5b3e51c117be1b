package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"snooze/internal/types"
)

// genericRequest and genericReply are the encoding/json decoders of the kinds
// that also have a hand-written one: the reference in every test below.
func genericRequest(kind string, data []byte) (any, error) {
	switch kind {
	case KindMonitor:
		return decode[MonitorReport](data)
	case KindGMHeartbeat:
		return decode[GMHeartbeat](data)
	case KindGLHeartbeat:
		return decode[GLHeartbeat](data)
	case KindStartVM:
		return decode[StartVMRequest](data)
	}
	return nil, errNoHandCodec
}

func genericReply(kind string, data []byte) (any, error) {
	if kind == KindStartVM {
		return decode[StartVMResponse](data)
	}
	return nil, errNoHandCodec
}

var errNoHandCodec = errors.New("kind has no hand-written codec")

// scanned reports whether the hand-written decoder of kind accepts data
// (false: DecodeRequest/DecodeReply fall back to encoding/json).
func scanned(kind string, reply bool, data []byte) bool {
	var ok bool
	switch {
	case reply && kind == KindStartVM:
		_, ok = scanStartVMResponse(data)
	case kind == KindMonitor:
		_, ok = scanMonitorReport(data)
	case kind == KindGMHeartbeat:
		_, ok = scanGMHeartbeat(data)
	case kind == KindGLHeartbeat:
		_, ok = scanGLHeartbeat(data)
	case kind == KindStartVM:
		_, ok = scanStartVMRequest(data)
	}
	return ok
}

// sameOutcome fails unless a decoder and its reference agree: the same value,
// or an error from both.
func sameOutcome(t *testing.T, what string, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %#v\nwant %#v", what, got, want)
	}
}

// checkCodec holds the append encoder and the decoder of one message against
// encoding/json: same bytes or same error, same decoded value. It returns the
// encoding (nil when the value does not marshal).
func checkCodec(t *testing.T, kind string, reply bool, v any) []byte {
	t.Helper()
	appendFn, decodeFn, generic := AppendRequest, DecodeRequest, genericRequest
	if reply {
		appendFn, decodeFn, generic = AppendReply, DecodeReply, genericReply
	}
	want, wantErr := json.Marshal(v)
	const prefix = `{"payload":`
	got, gotErr := appendFn([]byte(prefix), kind, v)
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %#v: append error %v, json.Marshal error %v", kind, v, gotErr, wantErr)
		}
		if string(got) != prefix {
			t.Fatalf("%s: failed append left %q in dst", kind, got)
		}
		return nil
	}
	if gotErr != nil || string(got) != prefix+string(want) {
		t.Fatalf("%s %#v:\nappend  %s (err %v)\nmarshal %s", kind, v, got[len(prefix):], gotErr, want)
	}
	if ref, refErr := generic(kind, want); refErr != errNoHandCodec {
		dec, decErr := decodeFn(kind, want)
		sameOutcome(t, kind+" decode of "+string(want), dec, decErr, ref, refErr)
	}
	return want
}

func report(node string, vms ...string) MonitorReport {
	st := types.NodeStatus{
		Spec:       types.NodeSpec{ID: types.NodeID(node), Capacity: types.RV(8, 16384, 1000, 1000)},
		Power:      types.PowerOn,
		Generation: 1,
		Idle:       len(vms) == 0,
	}
	r := MonitorReport{AtNs: 1}
	for _, id := range vms {
		spec := types.VMSpec{ID: types.VMID(id), Requested: types.RV(0.5, 512, 10, 2.5)}
		st.VMs = append(st.VMs, spec.ID)
		st.Reserved = st.Reserved.Add(spec.Requested)
		st.Used = st.Used.Add(spec.Requested.Scale(0.37))
		r.VMs = append(r.VMs, types.VMStatus{Spec: spec, State: types.VMRunning, Node: st.Spec.ID, Used: spec.Requested.Scale(0.37)})
	}
	r.Status = st
	return r
}

// report16 is the monitor16 fixture of bench/layers.go (a node with 16 VMs
// using what they requested), with the VM list in another order than the
// node's ID list, as a map-backed hypervisor reports them.
func report16() MonitorReport {
	st := types.NodeStatus{
		Spec:  types.NodeSpec{ID: "n000", Capacity: types.RV(16, 65536, 1000, 1000)},
		Power: types.PowerOn, Generation: 1,
	}
	r := MonitorReport{AtNs: 1, VMs: make([]types.VMStatus, 16)}
	for i := range r.VMs {
		spec := types.VMSpec{ID: types.VMID(fmt.Sprintf("n000-vm%03d", i)), Requested: types.RV(1.5, 4096, 10, 10)}
		st.VMs = append(st.VMs, spec.ID)
		st.Used = st.Used.Add(spec.Requested)
		st.Reserved = st.Reserved.Add(spec.Requested)
		r.VMs[len(r.VMs)-1-i] = types.VMStatus{Spec: spec, State: types.VMRunning, Node: st.Spec.ID, Used: spec.Requested}
	}
	r.Status = st
	return r
}

// TestAppendMatchesMarshal is the table half of the equivalence check: the
// shapes deployments send and the corners of encoding/json's formatting. The
// clean ones must also take the hand-written decoder, not just agree with it.
func TestAppendMatchesMarshal(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, 1e-7, 9.9e-7, 1e-6, 0.1 + 0.2, 1e15, 1e15 + 0.5, 1 << 53, 1e20, 1e21, 1.5e300,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-9, 123456.789}
	var floaty []types.VMStatus
	for i := 0; i+3 < len(floats); i++ {
		floaty = append(floaty, types.VMStatus{Used: types.RV(floats[i], floats[i+1], floats[i+2], floats[i+3])})
	}
	odd := []string{`a"b`, `a\b`, "<vm>", "a&b", "line\u2028sep", "\xff\xfe", "tab\t", "\x7f", "日本", "a,b]c"}
	var oddIDs MonitorReport
	for _, s := range odd {
		oddIDs.Status.VMs = append(oddIDs.Status.VMs, types.VMID(s))
		oddIDs.VMs = append(oddIDs.VMs, types.VMStatus{Spec: types.VMSpec{ID: types.VMID(s), TraceID: s}, Node: types.NodeID(s)})
	}

	cases := []struct {
		name  string
		kind  string
		reply bool
		v     any
		clean bool // printable-ASCII strings only: must round-trip through the hand-written decoder
	}{
		{"monitor/16", KindMonitor, false, report16(), true},
		{"monitor/idle", KindMonitor, false, report("n1"), true},
		{"monitor/zero", KindMonitor, false, MonitorReport{}, true},
		{"monitor/empty-slices", KindMonitor, false, MonitorReport{Status: types.NodeStatus{VMs: []types.VMID{}}, VMs: []types.VMStatus{}}, true},
		{"monitor/unstamped", KindMonitor, false, MonitorReport{Status: report("n1", "a").Status}, true},
		{"monitor/omitempty-set", KindMonitor, false, MonitorReport{AtNs: -5, VMs: []types.VMStatus{{Spec: types.VMSpec{ID: "a", TraceID: "diurnal"}, Node: "other"}}}, true},
		{"monitor/floats", KindMonitor, false, MonitorReport{VMs: floaty}, true},
		{"monitor/ints", KindMonitor, false, MonitorReport{Status: types.NodeStatus{Power: -3, IdleSince: math.MinInt64, Generation: math.MaxUint64}, AtNs: math.MaxInt64}, false},
		{"monitor/odd-ids", KindMonitor, false, oddIDs, false},
		{"monitor/many-vms", KindMonitor, false, report("n1", strings.Split(strings.Repeat("vm,", 100)+"vm", ",")...), true},
		{"monitor/pointer", KindMonitor, false, &MonitorReport{AtNs: 7}, false},
		{"monitor/wrong-type", KindMonitor, false, GMHeartbeat{GM: "gm-00"}, false},
		{"gm-heartbeat", KindGMHeartbeat, false, GMHeartbeat{GM: "gm-00", Addr: "mgr:gm-00"}, true},
		{"gm-heartbeat/zero", KindGMHeartbeat, false, GMHeartbeat{}, true},
		{"gm-heartbeat/odd", KindGMHeartbeat, false, GMHeartbeat{GM: "gm<0>", Addr: "mgr:\"gm\""}, false},
		{"gl-heartbeat", KindGLHeartbeat, false, GLHeartbeat{Addr: "mgr:gm-00", Epoch: 3}, true},
		{"gl-heartbeat/zero", KindGLHeartbeat, false, GLHeartbeat{}, true},
		{"gl-heartbeat/max", KindGLHeartbeat, false, GLHeartbeat{Epoch: math.MaxUint64}, false},
		{"start-vm", KindStartVM, false, StartVMRequest{Spec: types.VMSpec{ID: "vm-1", Requested: types.RV(0.02, 32, 0, 0)}, TraceID: "0000000000000001", ParentSpan: "0000000000000002"}, true},
		{"start-vm/zero", KindStartVM, false, StartVMRequest{}, true},
		{"start-vm/trace-only", KindStartVM, false, StartVMRequest{Spec: types.VMSpec{TraceID: "diurnal"}, ParentSpan: "p"}, true},
		{"start-vm/odd", KindStartVM, false, StartVMRequest{Spec: types.VMSpec{ID: "vm&1"}, TraceID: "\u2029"}, false},
		{"start-vm-reply/ok", KindStartVM, true, StartVMResponse{OK: true}, true},
		{"start-vm-reply/refused", KindStartVM, true, StartVMResponse{Error: "insufficient capacity"}, true},
		{"start-vm-reply/odd", KindStartVM, true, StartVMResponse{Error: "node <n1> said \"no\""}, false},
		{"other-kind", KindPlace, false, PlaceRequest{VMs: []types.VMSpec{{ID: "vm-1"}}}, false},
		{"no-payload", KindGLQuery, false, struct{}{}, false},
		{"inventory-request", KindInventory, false, InventoryRequest{VM: "vm-1", NodesOnly: true}, false},
		{"nil", KindRejoin, false, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := checkCodec(t, c.kind, c.reply, c.v)
			if !c.clean {
				return
			}
			if !scanned(c.kind, c.reply, data) {
				t.Fatalf("hand-written decoder refuses its encoder's output %s", data)
			}
			decodeFn := DecodeRequest
			if c.reply {
				decodeFn = DecodeReply
			}
			if dec, err := decodeFn(c.kind, data); err != nil || !reflect.DeepEqual(dec, c.v) {
				t.Fatalf("round trip:\n got %#v (err %v)\nwant %#v", dec, err, c.v)
			}
		})
	}
}

// TestAppendRefusesNonFinite: NaN and the infinities fail exactly as
// json.Marshal fails them, wherever in the message they sit.
func TestAppendRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := report16()
		r.VMs[15].Used.NetTx = f
		checkCodec(t, KindMonitor, false, r)
		r = report16()
		r.Status.Spec.Capacity.CPU = f
		checkCodec(t, KindMonitor, false, r)
		checkCodec(t, KindStartVM, false, StartVMRequest{Spec: types.VMSpec{Requested: types.RV(1, f, 1, 1)}})
	}
}

// Generators for the property test: values drawn from the corners above mixed
// with arbitrary ones, so that a random message is usually neither all clean
// nor all odd.

func genFloat(r *rand.Rand) float64 {
	corners := []float64{0, math.Copysign(0, -1), 1, 0.02, 32, 16384, 1e-7, 1e-6, 1e15, 1e21, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	switch r.Intn(4) {
	case 0:
		return corners[r.Intn(len(corners))]
	case 1:
		return float64(r.Intn(1 << 20))
	case 2:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	default:
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

func genString(r *rand.Rand) string {
	corners := []string{"", "vm-1", "n000", "mgr:gm-00", `a"b`, `a\b`, "<", "&", "\u2028", "\xff", "é", "\x00", "a,b]c"}
	switch r.Intn(4) {
	case 0:
		return corners[r.Intn(len(corners))]
	case 1:
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b)
	default:
		b := make([]byte, r.Intn(20))
		for i := range b {
			b[i] = "abcdefghijklmnopqrstuvwxyz0123456789-:. "[r.Intn(40)]
		}
		return string(b)
	}
}

func genVector(r *rand.Rand) types.ResourceVector {
	if r.Intn(8) == 0 {
		return types.ResourceVector{}
	}
	return types.RV(genFloat(r), genFloat(r), genFloat(r), genFloat(r))
}

func genInt(r *rand.Rand) int64 {
	switch r.Intn(3) {
	case 0:
		return int64(r.Intn(8))
	case 1:
		return r.Int63() - r.Int63()
	default:
		return 0
	}
}

func genSpec(r *rand.Rand) types.VMSpec {
	s := types.VMSpec{ID: types.VMID(genString(r)), Requested: genVector(r)}
	if r.Intn(2) == 0 {
		s.TraceID = genString(r)
	}
	return s
}

func genReport(r *rand.Rand) MonitorReport {
	m := MonitorReport{AtNs: genInt(r)}
	st := &m.Status
	st.Spec = types.NodeSpec{ID: types.NodeID(genString(r)), Capacity: genVector(r)}
	st.Power = types.PowerState(genInt(r))
	st.Used, st.Reserved = genVector(r), genVector(r)
	st.Idle, st.IdleSince, st.Generation = r.Intn(2) == 0, genInt(r), uint64(genInt(r))
	switch n := r.Intn(6); n {
	case 0: // nil
	case 1:
		st.VMs = []types.VMID{}
	default:
		for i := 0; i < n*n; i++ {
			st.VMs = append(st.VMs, types.VMID(genString(r)))
		}
	}
	switch n := r.Intn(6); n {
	case 0:
	case 1:
		m.VMs = []types.VMStatus{}
	default:
		for i := 0; i < n*n; i++ {
			v := types.VMStatus{Spec: genSpec(r), State: types.VMState(genInt(r)), Used: genVector(r)}
			// Mostly the IDs the node status lists, as a real report; sometimes not.
			if len(st.VMs) > 0 && r.Intn(4) != 0 {
				v.Spec.ID = st.VMs[r.Intn(len(st.VMs))]
			}
			switch r.Intn(3) {
			case 0:
				v.Node = st.Spec.ID
			case 1:
				v.Node = types.NodeID(genString(r))
			}
			m.VMs = append(m.VMs, v)
		}
	}
	return m
}

// TestCodecProperty is the testing/quick half of the equivalence check.
func TestCodecProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(19))}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		checkCodec(t, KindMonitor, false, genReport(r))
		checkCodec(t, KindGMHeartbeat, false, GMHeartbeat{GM: types.GroupManagerID(genString(r)), Addr: genString(r)})
		checkCodec(t, KindGLHeartbeat, false, GLHeartbeat{Addr: genString(r), Epoch: uint64(genInt(r))})
		req := StartVMRequest{Spec: genSpec(r)}
		if r.Intn(2) == 0 {
			req.TraceID, req.ParentSpan = genString(r), genString(r)
		}
		checkCodec(t, KindStartVM, false, req)
		resp := StartVMResponse{OK: r.Intn(2) == 0}
		if !resp.OK {
			resp.Error = genString(r)
		}
		checkCodec(t, KindStartVM, true, resp)
		return !t.Failed()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeDoesNotAliasInput: a value decoded from a buffer survives the
// buffer's reuse (internal/rest decodes from pooled request buffers).
func TestDecodeDoesNotAliasInput(t *testing.T) {
	cases := []struct {
		kind  string
		reply bool
		v     any
	}{
		{KindMonitor, false, report16()},
		{KindGMHeartbeat, false, GMHeartbeat{GM: "gm-00", Addr: "mgr:gm-00"}},
		{KindGLHeartbeat, false, GLHeartbeat{Addr: "mgr:gm-00", Epoch: 3}},
		{KindStartVM, false, StartVMRequest{Spec: types.VMSpec{ID: "vm-1", TraceID: "diurnal"}, TraceID: "t", ParentSpan: "p"}},
		{KindStartVM, true, StartVMResponse{Error: "insufficient capacity"}},
	}
	for _, c := range cases {
		decodeFn := DecodeRequest
		if c.reply {
			decodeFn = DecodeReply
		}
		buf, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if !scanned(c.kind, c.reply, buf) {
			t.Fatalf("%s: not on the hand-written path", c.kind)
		}
		got, err := decodeFn(c.kind, buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'X'
		}
		if !reflect.DeepEqual(got, c.v) {
			t.Fatalf("%s: decoded value changed with its input buffer:\n got %#v\nwant %#v", c.kind, got, c.v)
		}
	}
}

// TestMonitorDecodeAllocations pins the sharing of strings within a report:
// the node's VM IDs share one copy of their text, the VM statuses reuse those
// IDs and the node's, so decoding costs one allocation per slice, one for the
// node ID and one for the boxed result (encoding/json: 69).
func TestMonitorDecodeAllocations(t *testing.T) {
	data, _ := json.Marshal(report16())
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRequest(KindMonitor, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("decoding a 16-VM report: %v allocations, want <= 6", allocs)
	}
	var buf []byte
	allocs = testing.AllocsPerRun(100, func() {
		buf, _ = AppendRequest(buf[:0], KindMonitor, report16Value)
	})
	if allocs > 0 {
		t.Fatalf("encoding a 16-VM report into a reused buffer: %v allocations, want 0", allocs)
	}
}

var report16Value any = report16()

// TestNoPayloadKindsRefuseNonJSON: kinds that carry nothing accept any JSON
// value and refuse text that is not JSON, as a whole-envelope decode did.
func TestNoPayloadKindsRefuseNonJSON(t *testing.T) {
	for _, data := range []string{"", "{}", "null", `{"x":1}`, " 7 "} {
		if _, err := DecodeRequest(KindGLQuery, []byte(data)); err != nil {
			t.Errorf("request %q: %v", data, err)
		}
		if _, err := DecodeReply(KindMonitor, []byte(data)); err != nil {
			t.Errorf("reply %q: %v", data, err)
		}
	}
	for _, data := range []string{"{", `{}{}`, "nul", `1,"x":2`} {
		if _, err := DecodeRequest(KindGLQuery, []byte(data)); err == nil {
			t.Errorf("request %q accepted", data)
		}
		if _, err := DecodeReply(KindMonitor, []byte(data)); err == nil {
			t.Errorf("reply %q accepted", data)
		}
	}
}

// TestInventoryRequestCodec: gm.inventory carries a request since it can be
// narrowed. Whatever a sender that predates InventoryRequest puts there — no
// payload, {} for its struct{}{}, null — is the zero request, which asks for
// everything; a payload of another JSON type is now a decode error.
func TestInventoryRequestCodec(t *testing.T) {
	for _, want := range []InventoryRequest{{}, {VM: "vm-1"}, {NodesOnly: true}} {
		data, err := AppendRequest(nil, KindInventory, want)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeRequest(KindInventory, data); err != nil || got != want {
			t.Errorf("round trip of %+v through %s: %+v (err %v)", want, data, got, err)
		}
	}
	for _, data := range []string{"", "{}", "null", `{"x":1}`} {
		if got, err := DecodeRequest(KindInventory, []byte(data)); err != nil || got != (InventoryRequest{}) {
			t.Errorf("%q: %+v (err %v), want the zero request", data, got, err)
		}
	}
	for _, data := range []string{" 7 ", `"vm-1"`, `{"vm":7}`, "{", `{}{}`, "nul"} {
		if got, err := DecodeRequest(KindInventory, []byte(data)); err == nil {
			t.Errorf("%q accepted as %+v", data, got)
		}
	}
}

// Fuzz targets: for arbitrary input the hand-written decoders agree with
// encoding/json. Seeds: the encoders' own output, and testdata/fuzz holds
// foreign shapes (reordered, mixed-case and duplicate keys, escapes,
// whitespace, trailing garbage, deep nesting, huge numbers).

func FuzzDecodeRequest(f *testing.F) {
	seeds := []struct {
		kind string
		v    any
	}{
		{KindMonitor, report16()},
		{KindMonitor, report("n1")},
		{KindMonitor, MonitorReport{}},
		{KindGMHeartbeat, GMHeartbeat{GM: "gm-00", Addr: "mgr:gm-00"}},
		{KindGLHeartbeat, GLHeartbeat{Addr: "mgr:gm-00", Epoch: 3}},
		{KindStartVM, StartVMRequest{Spec: types.VMSpec{ID: "vm-1", Requested: types.RV(0.02, 32, 0, 0)}, TraceID: "01", ParentSpan: "02"}},
	}
	for _, s := range seeds {
		data, err := json.Marshal(s.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.kind, data)
	}
	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		want, wantErr := genericRequest(kind, data)
		if wantErr == errNoHandCodec {
			return
		}
		pristine := bytes.Clone(data)
		got, gotErr := DecodeRequest(kind, data)
		if !bytes.Equal(data, pristine) {
			t.Fatal("decoder wrote to its input")
		}
		sameOutcome(t, kind, got, gotErr, want, wantErr)
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Add(KindStartVM, []byte(`{"ok":true}`))
	f.Add(KindStartVM, []byte(`{"ok":false,"error":"insufficient capacity"}`))
	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		want, wantErr := genericReply(kind, data)
		if wantErr == errNoHandCodec {
			return
		}
		got, gotErr := DecodeReply(kind, data)
		sameOutcome(t, kind, got, gotErr, want, wantErr)
	})
}

// The micro gate of the wire path's codec layer (BENCH_telemetry.json): a
// 16-VM monitor report, the message monitoring ingest is made of.

var benchSink any

func BenchmarkCodecMonitor16Encode(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendRequest(buf[:0], KindMonitor, report16Value)
	}
	benchSink = buf
}

func BenchmarkCodecMonitor16Decode(b *testing.B) {
	data, _ := json.Marshal(report16())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = DecodeRequest(KindMonitor, data)
	}
}
