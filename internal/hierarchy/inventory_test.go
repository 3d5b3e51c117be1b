package hierarchy

import (
	"reflect"
	"testing"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/types"
)

// TestInventoryRequests: a GM answers what it is asked for — everything for
// the zero request and for the struct{}{} an in-process caller that predates
// InventoryRequest sends, one VM with its host for a by-ID request, the node
// records alone for a nodes-only one — and the narrowed replies are the full
// reply restricted, ages included.
func TestInventoryRequests(t *testing.T) {
	w := newWaveRig(t, 47, func() scheduling.DispatchPolicy { return &scheduling.RoundRobinDispatch{} }, 1, 3)
	placed := 0
	w.gl.dispatch(wave(6, 1), func(p map[types.VMID]types.NodeID, _ []types.VMID) { placed = len(p) })
	w.settle(30 * time.Second) // boots, then monitor reports carry the VMs to the GM
	if placed != 6 {
		t.Fatalf("fixture: placed %d of 6 VMs", placed)
	}
	ask := func(payload any) protocol.InventoryResponse {
		t.Helper()
		var resp protocol.InventoryResponse
		var callErr error
		w.bus.Call("test", w.gms[0].Addr(), protocol.KindInventory, payload, time.Second, func(reply any, err error) {
			resp, _ = reply.(protocol.InventoryResponse)
			callErr = err
		})
		w.settle(10 * time.Millisecond)
		if callErr != nil {
			t.Fatalf("%#v: %v", payload, callErr)
		}
		return resp
	}
	// Each ask is answered at its own instant, so replies are compared with
	// the report ages blanked.
	ageless := func(r protocol.InventoryResponse) protocol.InventoryResponse {
		out := r
		out.Nodes = append([]protocol.InventoryNode(nil), r.Nodes...)
		for i := range out.Nodes {
			out.Nodes[i].AgeNs = 0
		}
		return out
	}

	full := ask(protocol.InventoryRequest{})
	if len(full.Nodes) != 3 || len(full.VMs) != 6 {
		t.Fatalf("full inventory: %d nodes, %d VMs, want 3 and 6", len(full.Nodes), len(full.VMs))
	}
	for i := 1; i < len(full.VMs); i++ {
		if full.VMs[i-1].Spec.ID >= full.VMs[i].Spec.ID {
			t.Fatalf("VMs not in ID order: %q before %q", full.VMs[i-1].Spec.ID, full.VMs[i].Spec.ID)
		}
	}
	if legacy := ask(struct{}{}); !reflect.DeepEqual(ageless(legacy), ageless(full)) {
		t.Errorf("struct{}{} payload:\n got %+v\nwant the full inventory %+v", legacy, full)
	}

	nodesOnly := ask(protocol.InventoryRequest{NodesOnly: true})
	want := ageless(full)
	want.VMs = nil
	if !reflect.DeepEqual(ageless(nodesOnly), want) {
		t.Errorf("nodes-only:\n got %+v\nwant %+v", nodesOnly, want)
	}

	target := full.VMs[3]
	byID := ask(protocol.InventoryRequest{VM: target.Spec.ID})
	if len(byID.VMs) != 1 || !reflect.DeepEqual(byID.VMs[0], target) {
		t.Errorf("by-ID VMs: %+v, want only %+v", byID.VMs, target)
	}
	var host []protocol.InventoryNode
	for _, n := range want.Nodes {
		if n.Status.Spec.ID == target.Node {
			host = append(host, n)
		}
	}
	if !reflect.DeepEqual(ageless(byID).Nodes, host) {
		t.Fatalf("by-ID nodes: %+v, want only the host %+v", byID.Nodes, host)
	}
	if age := time.Duration(byID.Nodes[0].AgeNs); age < 0 || age > 30*time.Second {
		t.Errorf("by-ID host report age %v, want that of a live LC", age)
	}
	if byID.Scheduling != full.Scheduling {
		t.Errorf("by-ID scheduling: %+v, want %+v", byID.Scheduling, full.Scheduling)
	}

	if ghost := ask(protocol.InventoryRequest{VM: "ghost"}); len(ghost.VMs) != 0 || len(ghost.Nodes) != 0 {
		t.Errorf("unknown VM: %+v, want an empty reply", ghost)
	}
}
