package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	apiv1 "snooze/api/v1"
)

// recordingBackend validates a submission as a live backend does and records
// the specs that got past the server's body decoding.
type recordingBackend struct {
	apiv1.Backend
	mu    sync.Mutex
	specs []apiv1.VMSpec
}

func (b *recordingBackend) SubmitVMs(_ context.Context, specs []apiv1.VMSpec) (apiv1.SubmitResult, error) {
	if err := apiv1.ValidateSubmit(specs); err != nil {
		return apiv1.SubmitResult{}, err
	}
	b.mu.Lock()
	b.specs = specs
	b.mu.Unlock()
	placed := make(map[string]string, len(specs))
	for _, s := range specs {
		placed[s.ID] = "n1"
	}
	return apiv1.SubmitResult{Placed: placed}, nil
}

// TestSubmitRequestBodyContract pins what POST /v1/vms answers for request
// bodies of every shape a client may send: encoding/json's, other JSON
// writers', and broken ones. Status, error code and message are the
// contract, and so are the specs an accepted body hands the backend.
func TestSubmitRequestBodyContract(t *testing.T) {
	const maxBody = 256
	oneVM := []apiv1.VMSpec{{ID: "vm-1", Requested: apiv1.Resources{CPU: 1, MemoryMB: 1024}}}
	cases := []struct {
		name    string
		body    string
		status  int
		code    string
		message string
		specs   []apiv1.VMSpec // what the backend got, on 201
	}{
		{name: "encoder bytes", status: http.StatusCreated, specs: oneVM,
			body: `{"vms":[{"id":"vm-1","requested":{"cpu":1,"memoryMb":1024,"netRxMbps":0,"netTxMbps":0}}]}` + "\n"},
		{name: "marshal bytes", status: http.StatusCreated,
			body:  `{"vms":[{"id":"a","requested":{"cpu":0.5,"memoryMb":512.25,"netRxMbps":1e-7,"netTxMbps":10},"traceId":"diurnal"},{"id":"b","requested":{"cpu":0,"memoryMb":0,"netRxMbps":0,"netTxMbps":0}}]}`,
			specs: []apiv1.VMSpec{{ID: "a", Requested: apiv1.Resources{CPU: 0.5, MemoryMB: 512.25, NetRxMbps: 1e-7, NetTxMbps: 10}, TraceID: "diurnal"}, {ID: "b"}}},
		{name: "missing fields", status: http.StatusCreated, specs: []apiv1.VMSpec{{ID: "vm-1"}},
			body: `{"vms":[{"id":"vm-1"}]}`},
		{name: "whitespace", status: http.StatusCreated, specs: oneVM,
			body: " {\n  \"vms\": [ { \"id\": \"vm-1\", \"requested\": { \"cpu\": 1, \"memoryMb\": 1024 } } ]\n}\n\n"},
		{name: "reordered keys", status: http.StatusCreated, specs: oneVM,
			body: `{"vms":[{"requested":{"memoryMb":1024,"netTxMbps":0,"cpu":1},"id":"vm-1"}]}`},
		{name: "case-variant keys", status: http.StatusCreated, specs: oneVM,
			body: `{"VMS":[{"ID":"vm-1","Requested":{"CPU":1,"memoryMB":1024}}]}`},
		{name: "escaped id", status: http.StatusCreated, specs: []apiv1.VMSpec{{ID: "vm-\u00e9<1>\"q\"/"}},
			body: `{"vms":[{"id":"vm-\u00e9\u003c1\u003e\"q\"\/"}]}`},
		{name: "non-ASCII id", status: http.StatusCreated, specs: []apiv1.VMSpec{{ID: "vm-\u00e9-\u2028"}},
			body: "{\"vms\":[{\"id\":\"vm-\u00e9-\u2028\"}]}"},
		{name: "invalid UTF-8 id", status: http.StatusCreated, specs: []apiv1.VMSpec{{ID: "vm-\uFFFD"}},
			body: "{\"vms\":[{\"id\":\"vm-\xff\"}]}"},
		{name: "duplicate key", status: http.StatusCreated, specs: []apiv1.VMSpec{{ID: "second"}},
			body: `{"vms":[{"id":"first"}],"vms":[{"id":"second"}]}`},
		{name: "trailing bytes", status: http.StatusCreated, specs: oneVM,
			body: `{"vms":[{"id":"vm-1","requested":{"cpu":1,"memoryMb":1024,"netRxMbps":0,"netTxMbps":0}}]}}garbage`},
		{name: "trailing value", status: http.StatusCreated, specs: oneVM,
			body: `{"vms":[{"id":"vm-1","requested":{"cpu":1,"memoryMb":1024}}]} {"vms":null}`},
		{name: "trailing bytes past the cap", status: http.StatusCreated, specs: oneVM,
			body: `{"vms":[{"id":"vm-1","requested":{"cpu":1,"memoryMb":1024}}]}` + strings.Repeat(" ", 2*maxBody)},
		{name: "unknown field", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"vm-1","zone":"a"}]}`,
			message: `bad request body: json: unknown field "zone"`},
		{name: "unknown top-level field", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"vm-1"}],"dryRun":true}`,
			message: `bad request body: json: unknown field "dryRun"`},
		{name: "wrong type", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":7}]}`,
			message: `bad request body: json: cannot unmarshal number into Go struct field VMSpec.vms.id of type string`},
		{name: "string for a number", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"vm-1","requested":{"cpu":"1"}}]}`,
			message: `bad request body: json: cannot unmarshal string into Go struct field Resources.vms.requested.cpu of type float64`},
		{name: "number out of range", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"vm-1","requested":{"cpu":1e400}}]}`,
			message: `bad request body: json: cannot unmarshal number 1e400 into Go struct field Resources.vms.requested.cpu of type float64`},
		{name: "top-level array", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `[]`,
			message: `bad request body: json: cannot unmarshal array into Go value of type apiv1.SubmitRequest`},
		{name: "syntax error", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"vm-1",}]}`,
			message: `bad request body: invalid character '}' looking for beginning of object key string`},
		{name: "truncated", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"vm-1"}`,
			message: `bad request body: unexpected EOF`},
		{name: "empty body", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    ``,
			message: `bad request body: EOF`},
		{name: "null body", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `null`,
			message: `apiv1: invalid argument: empty VM batch`},
		{name: "null vms", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":null}`,
			message: `apiv1: invalid argument: empty VM batch`},
		{name: "empty vms", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[]}` + "\n",
			message: `apiv1: invalid argument: empty VM batch`},
		{name: "empty id", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"","requested":{"cpu":1,"memoryMb":1024,"netRxMbps":0,"netTxMbps":0}}]}`,
			message: `apiv1: invalid argument: VM with empty ID`},
		{name: "duplicate ids", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"a"},{"id":"a"}]}`,
			message: `apiv1: invalid argument: duplicate VM ID "a"`},
		{name: "negative request", status: http.StatusBadRequest, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"a","requested":{"cpu":-1,"memoryMb":0,"netRxMbps":0,"netTxMbps":0}}]}`,
			message: `apiv1: invalid argument: VM "a" requests negative resources`},
		{name: "over the cap", status: http.StatusRequestEntityTooLarge, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"` + strings.Repeat("x", 2*maxBody) + `"}]}`,
			message: `request body too large`},
		{name: "over the cap by one byte", status: http.StatusRequestEntityTooLarge, code: apiv1.CodeInvalid,
			body:    `{"vms":[{"id":"` + strings.Repeat("x", maxBody-18) + `"}]}`,
			message: `request body too large`},
		{name: "at the cap", status: http.StatusCreated, specs: []apiv1.VMSpec{{ID: strings.Repeat("x", maxBody-19)}},
			body: `{"vms":[{"id":"` + strings.Repeat("x", maxBody-19) + `"}]}`},
	}
	backend := &recordingBackend{}
	s := New(backend)
	s.MaxBodyBytes = maxBody
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			backend.mu.Lock()
			backend.specs = nil
			backend.mu.Unlock()
			resp, err := http.Post(srv.URL+"/v1/vms", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, c.status, data)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if c.status != http.StatusCreated {
				var envelope apiv1.ErrorBody
				if err := apiv1.DecodeBody(data, &envelope); err != nil {
					t.Fatalf("error envelope %s: %v", data, err)
				}
				if envelope.Error.Code != c.code || envelope.Error.Message != c.message {
					t.Errorf("envelope %+v, want code %q message %q", envelope.Error, c.code, c.message)
				}
				return
			}
			backend.mu.Lock()
			got := backend.specs
			backend.mu.Unlock()
			if !reflect.DeepEqual(got, c.specs) {
				t.Errorf("backend got %#v, want %#v", got, c.specs)
			}
			var result apiv1.SubmitResult
			if err := apiv1.DecodeBody(data, &result); err != nil || len(result.Placed) != len(c.specs) {
				t.Errorf("result %s: %+v (err %v)", data, result, err)
			}
		})
	}
}
