package apiv1

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func genSubmitRequest(r *rand.Rand) SubmitRequest {
	var req SubmitRequest
	traces := []string{"", "", "diurnal", genString(r)}
	switch n := r.Intn(6); n {
	case 0: // nil: "vms":null
	case 1:
		req.VMs = []VMSpec{}
	default:
		for i := 0; i < n*n; i++ {
			req.VMs = append(req.VMs, VMSpec{ID: genString(r), Requested: genResources(r), TraceID: traces[r.Intn(len(traces))]})
		}
	}
	return req
}

func genSubmitResult(r *rand.Rand) SubmitResult {
	var res SubmitResult
	nodes := []string{"n000", "n001", genString(r)}
	switch n := r.Intn(6); n {
	case 0: // nil: "placed":null
	case 1:
		res.Placed = map[string]string{}
	default:
		res.Placed = make(map[string]string)
		for i := 0; i < n*n; i++ {
			res.Placed[genString(r)] = nodes[r.Intn(len(nodes))]
		}
	}
	switch k := r.Intn(4); k {
	case 0: // nil: omitted
	case 1:
		res.Unplaced = []string{} // empty: omitted too
	default:
		for j := 0; j < k; j++ {
			res.Unplaced = append(res.Unplaced, genString(r))
		}
	}
	return res
}

// submitFixture is one submission of n VMs as the bench's load generator
// sends it, and its result with the VMs spread over 32 nodes.
func submitFixture(n int) (SubmitRequest, SubmitResult) {
	req := SubmitRequest{VMs: make([]VMSpec, n)}
	res := SubmitResult{Placed: make(map[string]string, n)}
	for i := range req.VMs {
		id := fmt.Sprintf("r%07d-%d", 42, i)
		req.VMs[i] = VMSpec{ID: id, Requested: Resources{CPU: 0.4, MemoryMB: 1200}}
		res.Placed[id] = fmt.Sprintf("n%03d", (i*7)%32)
	}
	return req, res
}

// TestAppendSubmitMatchesEncoder: the submission's request and result are
// json.Encoder's bytes — map keys sorted, null for a nil map or slice,
// unplaced and traceId omitted when empty — and decode to what json.Unmarshal
// makes of them; the clean ones through the scanners. A NaN is left to
// encoding/json, which refuses it with dst unchanged.
func TestAppendSubmitMatchesEncoder(t *testing.T) {
	req64, res64 := submitFixture(64)
	clean := []any{
		SubmitRequest{},
		SubmitRequest{VMs: []VMSpec{}},
		SubmitRequest{VMs: []VMSpec{{ID: "vm-1", Requested: Resources{CPU: 1, MemoryMB: 1024}}}},
		SubmitRequest{VMs: []VMSpec{{ID: "a", TraceID: "diurnal", Requested: Resources{CPU: 0.1 + 0.2, MemoryMB: 1e21, NetRxMbps: 1e-7}}, {ID: "b", TraceID: "diurnal"}, {ID: "c"}}},
		req64,
		SubmitResult{},
		SubmitResult{Placed: map[string]string{}},
		SubmitResult{Placed: map[string]string{"vm-b": "n1", "vm-a": "n2", "vm-c": "n1", "vm-10": "n1", "": "n3"}},
		SubmitResult{Placed: map[string]string{"vm-a": "n1"}, Unplaced: []string{"vm-c", "vm-b"}},
		SubmitResult{Unplaced: []string{"vm-a"}},
		res64,
	}
	for _, body := range clean {
		switch v := body.(type) {
		case SubmitRequest:
			checkBody(t, v)
		case SubmitResult:
			checkBody(t, v)
		}
		data, _ := encodeJSON(body)
		dst := reflect.New(reflect.TypeOf(body))
		if !ScanBody(data, dst.Interface()) || !reflect.DeepEqual(dst.Elem().Interface(), body) {
			t.Errorf("ScanBody(%s) = %#v, want %#v", data, dst.Elem().Interface(), body)
		}
		if !ScanBody(bytes.TrimSuffix(data, []byte("\n")), reflect.New(reflect.TypeOf(body)).Interface()) {
			t.Errorf("ScanBody refuses %s without its newline", data)
		}
	}
	if data, _ := AppendBody(nil, SubmitResult{}); string(data) != "{\"placed\":null}\n" {
		t.Errorf("nil map: %q", data)
	}

	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		body := SubmitRequest{VMs: []VMSpec{{ID: "a"}, {ID: "b", Requested: Resources{MemoryMB: f}}}}
		_, wantErr := encodeJSON(body)
		got, err := AppendBody([]byte("keep:"), body)
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() || string(got) != "keep:" {
			t.Errorf("request with %v: %q, error %v; json.Encoder error %v", f, got, err, wantErr)
		}
	}

	n := 2000
	if testing.Short() {
		n = 200
	}
	r := rand.New(rand.NewSource(29))
	for i := 0; i < n; i++ {
		checkBody(t, genSubmitRequest(r))
		checkBody(t, genSubmitResult(r))
	}
}

// TestSubmitScannersRefuseForeignShapes: what no encoder of ours writes is
// left to encoding/json — keys out of order or repeated, whitespace, escapes,
// missing or unknown fields — and DecodeBody still decodes it as
// json.Unmarshal does.
func TestSubmitScannersRefuseForeignShapes(t *testing.T) {
	requests := []string{
		`{"vms":[{"requested":{"cpu":1,"memoryMb":1,"netRxMbps":0,"netTxMbps":0},"id":"a"}]}`,
		`{"vms":[{"id":"a"}]}`,
		`{"vms":[{"id":"a","requested":{"cpu":1,"memoryMb":1,"netRxMbps":0,"netTxMbps":0},"zone":"x"}]}`,
		`{"vms":[{"id":"\u0061","requested":{"cpu":1,"memoryMb":1,"netRxMbps":0,"netTxMbps":0}}]}`,
		`{"VMS":null}`,
		`{"vms": null}`,
		`{"vms":null,"vms":[]}`,
	}
	for _, data := range requests {
		var got, want SubmitRequest
		if ScanBody([]byte(data), &got) {
			t.Errorf("request scanner accepts the foreign shape %s", data)
		}
		if err := json.Unmarshal([]byte(data), &want); err != nil {
			t.Fatal(err)
		}
		if err := DecodeBody([]byte(data), &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeBody(%s):\n got %#v (err %v)\nwant %#v", data, got, err, want)
		}
	}
	results := []string{
		`{"placed":{"b":"n1","a":"n1"}}`,
		`{"placed":{"a":"n1","a":"n2"}}`,
		`{"placed":{"a":"n1"},"unplaced":["b"],"extra":1}`,
		`{"unplaced":["b"],"placed":{"a":"n1"}}`,
		`{"placed":{"a":"n\u0031"}}`,
		`{ "placed":{}}`,
		`{"placed":{"a":"n1",}}`,
	}
	for _, data := range results {
		var got, want SubmitResult
		if ScanBody([]byte(data), &got) {
			t.Errorf("result scanner accepts the foreign shape %s", data)
		}
		if json.Unmarshal([]byte(data), &want) != nil {
			if DecodeBody([]byte(data), &got) == nil {
				t.Errorf("DecodeBody(%s) accepts what json.Unmarshal refuses: %#v", data, got)
			}
			continue
		}
		if err := DecodeBody([]byte(data), &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeBody(%s):\n got %#v (err %v)\nwant %#v", data, got, err, want)
		}
	}
}

// TestSubmitDecodeDoesNotAliasInput: the server scans from a pooled buffer,
// and the client decodes from one.
func TestSubmitDecodeDoesNotAliasInput(t *testing.T) {
	req, res := submitFixture(8)
	req.VMs[3].TraceID = "diurnal"
	res.Unplaced = []string{"vm-x", "vm-y"}
	reqData, _ := encodeJSON(req)
	resData, _ := encodeJSON(res)
	var gotReq SubmitRequest
	var gotRes SubmitResult
	if !ScanBody(reqData, &gotReq) || !ScanBody(resData, &gotRes) {
		t.Fatal("fixtures not scanned")
	}
	for _, data := range [][]byte{reqData, resData} {
		for i := range data {
			data[i] = 'X'
		}
	}
	if !reflect.DeepEqual(gotReq, req) || !reflect.DeepEqual(gotRes, res) {
		t.Fatal("decoded submission changed with its input buffers")
	}
}

// TestSubmitDecodeAllocations pins the sharing of strings: a request costs
// its specs and one ID text; a result its map, one ID text, one string per
// distinct node and, from the second node on, the interner's map (64 VMs on
// 32 nodes: 46 allocations with Go 1.24's maps).
func TestSubmitDecodeAllocations(t *testing.T) {
	for _, c := range []struct {
		vms      int
		req, res float64
	}{{1, 2, 4}, {64, 2, 50}} {
		req, res := submitFixture(c.vms)
		reqData, _ := encodeJSON(req)
		resData, _ := encodeJSON(res)
		var gotReq SubmitRequest
		var gotRes SubmitResult
		reqAllocs := testing.AllocsPerRun(20, func() {
			if !ScanBody(reqData, &gotReq) {
				t.Fatal("request not scanned")
			}
		})
		resAllocs := testing.AllocsPerRun(20, func() {
			if !ScanBody(resData, &gotRes) {
				t.Fatal("result not scanned")
			}
		})
		t.Logf("%d VMs: request %v allocations, result %v", c.vms, reqAllocs, resAllocs)
		if reqAllocs > c.req || resAllocs > c.res {
			t.Errorf("%d VMs: request %v allocations (want <= %v), result %v (want <= %v)", c.vms, reqAllocs, c.req, resAllocs, c.res)
		}
	}
}

// Fuzz targets: whenever a scanner accepts, its value is json.Unmarshal's,
// and it neither writes to its input nor keeps a reference into it; what the
// request scanner accepts, the server's json.Decoder (unknown fields
// disallowed) accepts too, with the same value. testdata/fuzz holds the
// foreign shapes.

func FuzzScanSubmitRequest(f *testing.F) {
	req3, _ := submitFixture(3)
	for _, req := range []SubmitRequest{{}, {VMs: []VMSpec{}}, req3, {VMs: []VMSpec{{ID: "a", TraceID: "t", Requested: Resources{CPU: 0.5}}}}} {
		data, err := encodeJSON(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzScan(t, data, scanSubmitRequest)
		got, ok := scanSubmitRequest(data)
		if !ok {
			return
		}
		var strict SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&strict); err != nil {
			t.Fatalf("scanner accepts %q, json.Decoder: %v", data, err)
		}
		if !reflect.DeepEqual(got, strict) {
			t.Fatalf("%q:\n got %#v\njson.Decoder %#v", data, got, strict)
		}
	})
}

func FuzzScanSubmitResult(f *testing.F) {
	_, res := submitFixture(3)
	for _, r := range []SubmitResult{{}, {Placed: map[string]string{}}, res, {Placed: map[string]string{"a": "n1"}, Unplaced: []string{"b", "c"}}} {
		data, err := encodeJSON(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fuzzScan(t, data, scanSubmitResult) })
}

// The micro gate of the /v1 submit path (BENCH_telemetry.json): one
// submission's two bodies, the request and its result, for a single VM (one
// placement of submit_steady) and for 64 (a batch of burst_local). Encode is
// what the client and the server write, Decode what the server and the
// client read. The EncodingJSON benchmarks are the reference on the same
// machine, as the parent commit wrote and read them, outside the gate.

var submitSizes = []int{1, 64}

func BenchmarkSubmitBodyEncode(b *testing.B) {
	for _, n := range submitSizes {
		req, res := submitFixture(n)
		var reqBody, resBody any = req, res
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			var reqBuf, resBuf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reqBuf, _ = AppendBody(reqBuf[:0], reqBody)
				resBuf, _ = AppendBody(resBuf[:0], resBody)
			}
			benchSink = resBuf
		})
	}
}

func BenchmarkSubmitBodyDecode(b *testing.B) {
	for _, n := range submitSizes {
		req, res := submitFixture(n)
		reqData, _ := encodeJSON(req)
		resData, _ := encodeJSON(res)
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var gotReq SubmitRequest
				var gotRes SubmitResult
				if !ScanBody(reqData, &gotReq) || DecodeBody(resData, &gotRes) != nil {
					b.Fatal("fixture not decoded")
				}
				benchSink = &gotRes
			}
		})
	}
}

func BenchmarkEncodingJSONSubmitEncode(b *testing.B) {
	for _, n := range submitSizes {
		req, res := submitFixture(n)
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, _ := json.Marshal(req)
				buf.Reset()
				_ = json.NewEncoder(&buf).Encode(res)
				benchSink = data
			}
		})
	}
}

func BenchmarkEncodingJSONSubmitDecode(b *testing.B) {
	for _, n := range submitSizes {
		req, res := submitFixture(n)
		reqData, _ := encodeJSON(req)
		resData, _ := encodeJSON(res)
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var gotReq SubmitRequest
				var gotRes SubmitResult
				dec := json.NewDecoder(bytes.NewReader(reqData))
				dec.DisallowUnknownFields()
				if dec.Decode(&gotReq) != nil || json.Unmarshal(resData, &gotRes) != nil {
					b.Fatal("fixture not decoded")
				}
				benchSink = &gotRes
			}
		})
	}
}
