package protocol

import (
	"encoding/json"
	"reflect"
	"testing"

	"snooze/internal/types"
)

// roundTrip encodes v to JSON and decodes into a fresh value of the same
// type, returning the decoded value. The REST layer depends on every
// protocol payload surviving this.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(data, out.Interface()); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	return out.Elem().Interface()
}

func TestJSONRoundTrips(t *testing.T) {
	spec := types.VMSpec{ID: "vm-1", Requested: types.RV(2, 2048, 10, 10), TraceID: "diurnal"}
	status := types.NodeStatus{
		Spec:       types.NodeSpec{ID: "n1", Capacity: types.RV(8, 16384, 1000, 1000)},
		Power:      types.PowerOn,
		Used:       types.RV(1, 512, 5, 5),
		Reserved:   types.RV(2, 2048, 10, 10),
		VMs:        []types.VMID{"vm-1"},
		Idle:       false,
		Generation: 3,
	}
	vmStatus := types.VMStatus{Spec: spec, State: types.VMRunning, Node: "n1", Used: types.RV(1, 512, 5, 5)}

	cases := []any{
		GLHeartbeat{Addr: "mgr:gm-00", Epoch: 2},
		GMHeartbeat{GM: "gm-01", Addr: "mgr:gm-01"},
		GMJoinRequest{GM: "gm-01", Addr: "mgr:gm-01"},
		GMJoinResponse{Accepted: true},
		SummaryUpdate{Addr: "mgr:gm-01", Summary: types.GroupSummary{GM: "gm-01", Total: types.RV(16, 32768, 2000, 2000), ActiveLCs: 2, VMs: 3}},
		LCAssignRequest{Spec: status.Spec},
		LCAssignResponse{GM: "gm-01", Addr: "mgr:gm-01"},
		LCJoinRequest{Addr: "lc:n1", OOB: "oob:lc:n1", Status: status, VMs: []types.VMStatus{vmStatus}},
		LCJoinResponse{Accepted: true},
		MonitorReport{Status: status, VMs: []types.VMStatus{vmStatus}},
		SubmitRequest{VMs: []types.VMSpec{spec}},
		SubmitResponse{Placed: map[types.VMID]types.NodeID{"vm-1": "n1"}, Unplaced: []types.VMID{"vm-2"}},
		PlaceRequest{VMs: []types.VMSpec{spec}},
		PlaceResponse{Placed: map[types.VMID]types.NodeID{"vm-1": "n1"}},
		StartVMRequest{Spec: spec},
		StartVMResponse{OK: false, Error: "insufficient"},
		StopVMRequest{VM: "vm-1"},
		MigrateVMRequest{VM: "vm-1", DestNode: "n2", DestAddr: "lc:n2"},
		MigrateVMResponse{OK: true},
		GLQueryResponse{Addr: "mgr:gm-00", Known: true},
		TopologyResponse{GL: "mgr:gm-00", GMs: []TopologyGM{{GM: "gm-01", Addr: "mgr:gm-01"}}},
	}
	for _, c := range cases {
		got := roundTrip(t, c)
		if !reflect.DeepEqual(got, c) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", c, got, c)
		}
	}
}

func TestKindNamingConvention(t *testing.T) {
	kinds := []string{
		KindGLHeartbeat, KindGMHeartbeat, KindGMJoin, KindSummary, KindLCAssign,
		KindLCJoin, KindMonitor, KindSubmit, KindPlace, KindStartVM,
		KindStopVM, KindMigrateVM, KindSuspendHost, KindWakeHost, KindGLQuery, KindTopology,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if k == "" || seen[k] {
			t.Fatalf("empty or duplicate kind %q", k)
		}
		seen[k] = true
	}
}
