package apiv1

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// encodeJSON is the reference encoder: what the server wrote for every body
// before the list codecs, and still writes for every other one.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// Generators: values drawn from the corners of encoding/json's formatting
// mixed with ordinary ones, so that a random list is usually neither all
// clean nor all odd.

func genFloat(r *rand.Rand) float64 {
	corners := []float64{0, math.Copysign(0, -1), 1, 0.4, 1200, 16384, 1e-7, 9.9e-7, 1e-6, 1e15, 1e15 + 0.5, 1 << 53,
		1e20, 1e21, 1.5e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2, 0.30000000000000004}
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
	corners := []string{"", "vm-1", "n000", "running", `a"b`, `a\b`, "<", "&", "\u2028", "\xff", "é", "\x00", "\x7f", `a,b]c`, `{"id":`}
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

func genResources(r *rand.Rand) Resources {
	if r.Intn(8) == 0 {
		return Resources{}
	}
	return Resources{CPU: genFloat(r), MemoryMB: genFloat(r), NetRxMbps: genFloat(r), NetTxMbps: genFloat(r)}
}

// genPage draws total and nextOffset: mostly a first or last page.
func genPage(r *rand.Rand) (total, next int) {
	switch r.Intn(3) {
	case 0:
		return r.Intn(4096), 0
	case 1:
		return r.Intn(4096), 1 + r.Intn(4096)
	default:
		return int(r.Int63() - r.Int63()), int(r.Int63() - r.Int63())
	}
}

func genVMList(r *rand.Rand) VMList {
	var l VMList
	l.Total, l.NextOffset = genPage(r)
	states := []string{"running", "pending", genString(r)}
	nodes := []string{"", "n000", "n001", genString(r)}
	switch n := r.Intn(6); n {
	case 0: // nil items
	case 1:
		l.Items = []VM{}
	default:
		for i := 0; i < n*n; i++ {
			vm := VM{ID: genString(r), Requested: genResources(r), Used: genResources(r),
				State: states[r.Intn(len(states))], Node: nodes[r.Intn(len(nodes))]}
			if r.Intn(3) == 0 {
				vm.TraceID = genString(r)
			}
			l.Items = append(l.Items, vm)
		}
	}
	return l
}

func genNodeList(r *rand.Rand) NodeList {
	var l NodeList
	l.Total, l.NextOffset = genPage(r)
	powers := []string{"on", "suspended", genString(r)}
	switch n := r.Intn(6); n {
	case 0:
	case 1:
		l.Items = []Node{}
	default:
		for i := 0; i < n*n; i++ {
			node := Node{ID: genString(r), Capacity: genResources(r), Used: genResources(r), Reserved: genResources(r),
				Power: powers[r.Intn(len(powers))], Idle: r.Intn(2) == 0}
			switch k := r.Intn(5); k {
			case 0: // nil: omitted
			case 1:
				node.VMs = []string{} // empty: omitted too
			default:
				for j := 0; j < k*k; j++ {
					node.VMs = append(node.VMs, genString(r))
				}
			}
			l.Items = append(l.Items, node)
		}
	}
	return l
}

// checkList holds the list codecs against encoding/json for one value: the
// same bytes appended after what dst already held, and the same value decoded
// back from them.
func checkList[T any](t *testing.T, v T) {
	t.Helper()
	want, err := encodeJSON(v)
	if err != nil {
		t.Fatalf("fixture %#v does not encode: %v", v, err)
	}
	const prefix = "keep:"
	got, err := AppendBody([]byte(prefix), v)
	if err != nil || string(got) != prefix+string(want) {
		t.Fatalf("AppendBody(%#v):\n got %q (err %v)\nwant %q", v, got[min(len(prefix), len(got)):], err, want)
	}
	var ref, dec T
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if err := DecodeBody(want, &dec); err != nil || !reflect.DeepEqual(dec, ref) {
		t.Fatalf("DecodeBody(%s):\n got %#v (err %v)\nwant %#v", want, dec, err, ref)
	}
}

// TestAppendListMatchesEncoder: for random lists the server's body is
// json.Encoder's output byte for byte, and decodes to what json.Unmarshal
// makes of it.
func TestAppendListMatchesEncoder(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < n; i++ {
		checkList(t, genVMList(r))
		checkList(t, genNodeList(r))
	}
}

// clean lists hold only what the scanners accept: they must take the
// hand-written decoder, not merely agree with encoding/json through the
// fallback.
func TestCleanListsAreScanned(t *testing.T) {
	vms := []VMList{
		{},
		{Items: []VM{}},
		{Items: []VM{{ID: "vm-1", State: "running", Node: "n1", TraceID: "diurnal", Used: Resources{CPU: 0.1 + 0.2, MemoryMB: 1e21, NetRxMbps: 1e-7}}, {ID: "vm-2", State: "pending"}}, Total: 7, NextOffset: 2},
		fixtureVMs(64),
	}
	for _, l := range vms {
		checkList(t, l)
		data, _ := encodeJSON(l)
		if got, ok := scanVMList(data); !ok || !reflect.DeepEqual(got, l) {
			t.Errorf("scanVMList(%s) = %#v, %v; want %#v", data, got, ok, l)
		}
		if _, ok := scanVMList(bytes.TrimSuffix(data, []byte("\n"))); !ok {
			t.Errorf("scanVMList refuses %s without its newline", data)
		}
	}
	nodes := []NodeList{
		{},
		{Items: []Node{}},
		{Items: []Node{{ID: "n1", Power: "on", VMs: []string{"a", "b"}, Capacity: Resources{CPU: 8, MemoryMB: 16384}}, {ID: "n2", Power: "suspended", Idle: true}}, Total: 2},
		fixtureNodes(4, 8),
	}
	for _, l := range nodes {
		checkList(t, l)
		data, _ := encodeJSON(l)
		if got, ok := scanNodeList(data); !ok || !reflect.DeepEqual(got, l) {
			t.Errorf("scanNodeList(%s) = %#v, %v; want %#v", data, got, ok, l)
		}
	}
}

// TestAppendBodyRefusesNonFinite: a NaN or an infinity anywhere in a list
// fails as json.Encoder fails it, leaving dst as it was.
func TestAppendBodyRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vms := fixtureVMs(4)
		vms.Items[3].Used.NetTxMbps = f
		nodes := fixtureNodes(2, 2)
		nodes.Items[0].Capacity.CPU = f
		for _, body := range []any{vms, nodes, vms.Items[3]} {
			_, wantErr := encodeJSON(body)
			got, err := AppendBody([]byte("keep:"), body)
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%T with %v: error %v, json.Encoder error %v", body, f, err, wantErr)
			}
			if string(got) != "keep:" {
				t.Errorf("%T with %v: failed append left %q in dst", body, f, got)
			}
		}
	}
}

// TestDecodeBodyFallsBack: bodies no encoder of ours wrote — another key
// order, indentation, escapes, unknown fields — decode as encoding/json
// decodes them, and what encoding/json rejects is rejected.
func TestDecodeBodyFallsBack(t *testing.T) {
	l := fixtureVMs(3)
	pretty, _ := json.MarshalIndent(l, "", "  ")
	reordered := `{"total":3,"items":[{"used":{"cpu":1},"state":"running","id":"a","extra":true},{"id":"\u0062","state":"run\u006eing"}]}`
	for _, data := range []string{string(pretty), reordered, `null`, `{}`, ` {"items":[],"total":0}`} {
		var got, want VMList
		if _, ok := scanVMList([]byte(data)); ok {
			t.Errorf("scanner accepts the foreign shape %s", data)
		}
		if err := json.Unmarshal([]byte(data), &want); err != nil {
			t.Fatal(err)
		}
		if err := DecodeBody([]byte(data), &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeBody(%s):\n got %#v (err %v)\nwant %#v", data, got, err, want)
		}
	}
	for _, data := range []string{``, `{"items":[{"id":"a"}],"total":1}}`, `{"items":[{"id":7}],"total":1}`, `{"items":null,"total":1e400}`, `{"items":null,"total":1.5}`} {
		var got VMList
		if err := DecodeBody([]byte(data), &got); err == nil {
			t.Errorf("DecodeBody(%s) accepted: %#v", data, got)
		}
	}
}

// TestListDecodeDoesNotAliasInput: the client decodes from a pooled buffer.
func TestListDecodeDoesNotAliasInput(t *testing.T) {
	vms, nodes := fixtureVMs(8), fixtureNodes(2, 4)
	vmData, _ := encodeJSON(vms)
	nodeData, _ := encodeJSON(nodes)
	var gotVMs VMList
	var gotNodes NodeList
	if err := DecodeBody(vmData, &gotVMs); err != nil {
		t.Fatal(err)
	}
	if err := DecodeBody(nodeData, &gotNodes); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{vmData, nodeData} {
		for i := range data {
			data[i] = 'X'
		}
	}
	if !reflect.DeepEqual(gotVMs, vms) || !reflect.DeepEqual(gotNodes, nodes) {
		t.Fatal("decoded lists changed with their input buffers")
	}
}

// TestListDecodeAllocations pins the sharing of repeated strings: a page
// costs one allocation per item (its ID), one for the items and one per
// distinct state and node (encoding/json: three per VM).
func TestListDecodeAllocations(t *testing.T) {
	data, _ := encodeJSON(fixtureVMs(2048))
	var l VMList
	allocs := testing.AllocsPerRun(10, func() {
		if err := DecodeBody(data, &l); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2200 {
		t.Fatalf("decoding a 2048-VM page: %v allocations, want <= 2200", allocs)
	}
	var buf []byte
	var body any = fixtureVMs(2048)
	allocs = testing.AllocsPerRun(10, func() {
		buf, _ = AppendBody(buf[:0], body)
	})
	if allocs > 1 { // the encoder itself
		t.Fatalf("encoding a 2048-VM page into a reused buffer: %v allocations, want <= 1", allocs)
	}
}

// fixtureVMs is a page as a loaded deployment serves it: the IDs and node
// spread of bench/layers.go's 2048-VM stub, with measured usage that needs
// all 17 digits.
func fixtureVMs(n int) VMList {
	l := VMList{Items: make([]VM, n), Total: n}
	for i := range l.Items {
		frac := float64(i%97+1) / 98
		l.Items[i] = VM{
			ID: fmt.Sprintf("r%07d-0", i), State: "running", Node: fmt.Sprintf("n%03d", i%32),
			Requested: Resources{CPU: 0.4, MemoryMB: 1200},
			Used:      Resources{CPU: 0.4 * frac, MemoryMB: 1200 * frac, NetRxMbps: 10 * frac, NetTxMbps: 10 * frac},
		}
	}
	return l
}

// fixtureNodes is the node listing of that deployment: nodes LCs of perNode
// VMs each.
func fixtureNodes(nodes, perNode int) NodeList {
	l := NodeList{Items: make([]Node, nodes), Total: nodes}
	for i := range l.Items {
		n := Node{ID: fmt.Sprintf("n%03d", i), Power: "on", Capacity: Resources{CPU: 64, MemoryMB: 262144, NetRxMbps: 10000, NetTxMbps: 10000}}
		for j := 0; j < perNode; j++ {
			n.VMs = append(n.VMs, fmt.Sprintf("r%07d-0", j*nodes+i))
			frac := float64(j%97+1) / 98
			n.Used.CPU += 0.4 * frac
			n.Used.MemoryMB += 1200 * frac
			n.Reserved.CPU += 0.4
			n.Reserved.MemoryMB += 1200
		}
		l.Items[i] = n
	}
	return l
}

// Fuzz targets: whenever a scanner accepts, its value is json.Unmarshal's
// (so whatever encoding/json rejects, it does not accept), and it neither
// writes to its input nor keeps a reference into it. Seeds: the encoder's own
// output; testdata/fuzz holds the foreign shapes (reordered, mixed-case and
// duplicate keys, escapes, whitespace, trailing garbage, huge numbers).

func fuzzScan[T any](t *testing.T, data []byte, scan func([]byte) (T, bool)) {
	pristine := bytes.Clone(data)
	got, ok := scan(data)
	if !bytes.Equal(data, pristine) {
		t.Fatal("scanner wrote to its input")
	}
	if !ok {
		return
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("scanner accepts %q, encoding/json: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got %#v\nwant %#v", data, got, want)
	}
	for i := range data {
		data[i] = 'X'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded list changed with its input buffer", pristine)
	}
}

func FuzzScanVMList(f *testing.F) {
	for _, l := range []VMList{{}, {Items: []VM{}}, fixtureVMs(3), {Items: []VM{{ID: "a", State: "pending", TraceID: "t"}}, Total: 9, NextOffset: 1}} {
		data, err := encodeJSON(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzScan(t, data, scanVMList) })
}

func FuzzScanNodeList(f *testing.F) {
	for _, l := range []NodeList{{}, {Items: []Node{}}, fixtureNodes(2, 3), {Items: []Node{{ID: "n", Power: "off", Idle: true}}, Total: 9, NextOffset: 1}} {
		data, err := encodeJSON(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzScan(t, data, scanNodeList) })
}

// The micro gate of the /v1 read path (BENCH_telemetry.json): the page a
// dashboard polls from a 2048-VM, 32-node deployment. The EncodingJSON
// benchmarks are the reference on the same machine, outside the gate.

var benchSink any

func BenchmarkListVMs2048Encode(b *testing.B) {
	var body any = fixtureVMs(2048)
	buf, _ := AppendBody(nil, body)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendBody(buf[:0], body)
	}
	benchSink = buf
}

func BenchmarkListVMs2048Decode(b *testing.B) {
	data, _ := encodeJSON(fixtureVMs(2048))
	benchDecode[VMList](b, data, DecodeBody)
}

func BenchmarkListNodes32x64Decode(b *testing.B) {
	data, _ := encodeJSON(fixtureNodes(32, 64))
	benchDecode[NodeList](b, data, DecodeBody)
}

func BenchmarkEncodingJSONVMs2048Encode(b *testing.B) {
	body := fixtureVMs(2048)
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(body)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(body)
	}
}

func BenchmarkEncodingJSONVMs2048Decode(b *testing.B) {
	data, _ := encodeJSON(fixtureVMs(2048))
	benchDecode[VMList](b, data, func(data []byte, dst any) error { return json.Unmarshal(data, dst) })
}

func benchDecode[T any](b *testing.B, data []byte, decode func([]byte, any) error) {
	if !strings.HasSuffix(string(data), "\n") {
		b.Fatal("fixture is not an encoder's output")
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var l T
	for i := 0; i < b.N; i++ {
		l = *new(T) // a fresh destination, as the client's
		if err := decode(data, &l); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = &l
}
