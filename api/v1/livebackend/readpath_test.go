package livebackend

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/internal/protocol"
	"snooze/internal/simkernel"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// fakeGM is a scripted group manager: it answers gm.inventory from a fixed
// inventory, narrowed the way the real handler narrows it, and records the
// requests it was sent.
type fakeGM struct {
	mu   sync.Mutex
	inv  protocol.InventoryResponse
	asks []any
	// legacy makes it ignore the request and answer in full, as a GM that
	// predates protocol.InventoryRequest does.
	legacy bool
	// fail makes it answer with an error; hang makes it not answer at all.
	fail, hang bool
}

func (g *fakeGM) handle(req *transport.Request) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.asks = append(g.asks, req.Payload)
	switch {
	case g.hang:
		return
	case g.fail:
		req.RespondErr(errors.New("gm: shutting down"))
		return
	}
	want, _ := req.Payload.(protocol.InventoryRequest)
	if g.legacy {
		want = protocol.InventoryRequest{}
	}
	resp := protocol.InventoryResponse{Scheduling: g.inv.Scheduling}
	hosts := make(map[types.NodeID]bool)
	for _, vm := range g.inv.VMs {
		if want.VM == "" && !want.NodesOnly || vm.Spec.ID == want.VM {
			resp.VMs = append(resp.VMs, vm)
			hosts[vm.Node] = true
		}
	}
	for _, n := range g.inv.Nodes {
		if want.VM == "" || hosts[n.Status.Spec.ID] {
			resp.Nodes = append(resp.Nodes, n)
		}
	}
	req.Respond(resp)
}

func (g *fakeGM) requests() []any {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]any(nil), g.asks...)
}

func invNode(id string, age time.Duration, vms ...string) protocol.InventoryNode {
	st := types.NodeStatus{Spec: types.NodeSpec{ID: types.NodeID(id), Capacity: types.RV(8, 16384, 1000, 1000)}, Power: types.PowerOn}
	for _, vm := range vms {
		st.VMs = append(st.VMs, types.VMID(vm))
		st.Reserved = st.Reserved.Add(types.RV(1, 1024, 10, 10))
	}
	return protocol.InventoryNode{Status: st, AgeNs: int64(age)}
}

func invVM(id, node string) types.VMStatus {
	return types.VMStatus{
		Spec:  types.VMSpec{ID: types.VMID(id), Requested: types.RV(1, 1024, 10, 10)},
		State: types.VMRunning, Node: types.NodeID(node), Used: types.RV(0.5, 512, 1, 1),
	}
}

// readRig is a backend over a bus holding an entry point, a GL that lists the
// given GMs in order, and those GMs.
func readRig(t *testing.T, gms ...*fakeGM) *Backend {
	t.Helper()
	bus := transport.NewBus(simkernel.NewWallRuntime(), transport.Config{})
	bus.Register("ep:0", func(req *transport.Request) {
		req.Respond(protocol.GLQueryResponse{Addr: "mgr:gl", Known: true})
	})
	var topo protocol.TopologyResponse
	for i, gm := range gms {
		addr := fmt.Sprintf("mgr:gm-%02d", i)
		bus.Register(transport.Address(addr), gm.handle)
		topo.GMs = append(topo.GMs, protocol.TopologyGM{GM: types.GroupManagerID(addr[4:]), Addr: addr})
	}
	bus.Register("mgr:gl", func(req *transport.Request) { req.Respond(topo) })
	return New(Config{Bus: bus, CallTimeout: 5 * time.Second})
}

func vmIDs(vms []apiv1.VM) []string {
	ids := make([]string, len(vms))
	for i, vm := range vms {
		ids[i] = vm.ID
	}
	return ids
}

// TestFreshestClaimWins: two GMs claim n1 — gm-00's record is stale (it still
// lists the VM that left) — and every read reports the fresher claim.
func TestFreshestClaimWins(t *testing.T) {
	stale := &fakeGM{inv: protocol.InventoryResponse{
		Nodes: []protocol.InventoryNode{invNode("n0", time.Second, "vm-a"), invNode("n1", 9*time.Second, "vm-gone", "vm-moved")},
		VMs:   []types.VMStatus{invVM("vm-a", "n0"), invVM("vm-gone", "n1"), invVM("vm-moved", "n1")},
	}}
	fresh := &fakeGM{inv: protocol.InventoryResponse{
		Nodes: []protocol.InventoryNode{invNode("n1", time.Second, "vm-b"), invNode("n2", 2*time.Second, "vm-moved")},
		VMs:   []types.VMStatus{invVM("vm-b", "n1"), invVM("vm-moved", "n2")},
	}}
	ctx := context.Background()
	for _, legacy := range []bool{false, true} {
		stale.legacy, fresh.legacy = legacy, legacy
		b := readRig(t, stale, fresh)

		vms, err := b.ListVMs(ctx)
		if want := []string{"vm-a", "vm-b", "vm-moved"}; err != nil || !reflect.DeepEqual(vmIDs(vms), want) {
			t.Fatalf("legacy=%v ListVMs: %v (err %v), want %v", legacy, vmIDs(vms), err, want)
		}
		if vms[2].Node != "n2" {
			t.Errorf("legacy=%v ListVMs: vm-moved on %s, want n2", legacy, vms[2].Node)
		}
		nodes, err := b.ListNodes(ctx)
		if err != nil || len(nodes) != 3 || nodes[0].ID != "n0" || nodes[1].ID != "n1" || nodes[2].ID != "n2" {
			t.Fatalf("legacy=%v ListNodes: %+v (err %v), want n0 n1 n2", legacy, nodes, err)
		}
		if !reflect.DeepEqual(nodes[1].VMs, []string{"vm-b"}) {
			t.Errorf("legacy=%v ListNodes: n1 hosts %v, want the fresher claim's [vm-b]", legacy, nodes[1].VMs)
		}
		if n1, err := b.GetNode(ctx, "n1"); err != nil || !reflect.DeepEqual(n1, nodes[1]) {
			t.Errorf("legacy=%v GetNode(n1): %+v (err %v), want %+v", legacy, n1, err, nodes[1])
		}
		if vm, err := b.GetVM(ctx, "vm-b"); err != nil || vm.Node != "n1" {
			t.Errorf("legacy=%v GetVM(vm-b): %+v (err %v), want it on n1", legacy, vm, err)
		}
		// Both GMs answer for vm-moved, on different nodes: the younger report wins.
		if vm, err := b.GetVM(ctx, "vm-moved"); err != nil || vm.Node != "n2" {
			t.Errorf("legacy=%v GetVM(vm-moved): %+v (err %v), want it on n2", legacy, vm, err)
		}
		// Only the stale claim lists vm-gone. A full reply from the fresher
		// GM shows its claim of n1 and vetoes it; a by-ID reply is empty and
		// cannot (the documented weakness of the by-ID form).
		vm, err := b.GetVM(ctx, "vm-gone")
		if legacy && !errors.Is(err, apiv1.ErrNotFound) {
			t.Errorf("GetVM(vm-gone) against full replies: %+v (err %v), want ErrNotFound", vm, err)
		}
		if !legacy && (err != nil || vm.Node != "n1") {
			t.Errorf("GetVM(vm-gone) by ID: %+v (err %v), want the stale claim's answer", vm, err)
		}

		if _, err := b.GetVM(ctx, "ghost"); !errors.Is(err, apiv1.ErrNotFound) {
			t.Errorf("legacy=%v GetVM(ghost): %v, want ErrNotFound", legacy, err)
		}
		if _, err := b.GetNode(ctx, "ghost"); !errors.Is(err, apiv1.ErrNotFound) {
			t.Errorf("legacy=%v GetNode(ghost): %v, want ErrNotFound", legacy, err)
		}
	}
}

// TestReadsAskForWhatTheyReturn pins the request each read sends to the GMs:
// only the listing of VMs may make a GM copy its VM list.
func TestReadsAskForWhatTheyReturn(t *testing.T) {
	gm0 := &fakeGM{inv: protocol.InventoryResponse{
		Nodes: []protocol.InventoryNode{invNode("n0", time.Second, "vm-b", "vm-d")},
		VMs:   []types.VMStatus{invVM("vm-b", "n0"), invVM("vm-d", "n0")},
	}}
	gm1 := &fakeGM{inv: protocol.InventoryResponse{
		Nodes: []protocol.InventoryNode{invNode("n1", time.Second, "vm-a", "vm-c")},
		VMs:   []types.VMStatus{invVM("vm-a", "n1"), invVM("vm-c", "n1")},
	}}
	b := readRig(t, gm0, gm1)
	ctx := context.Background()

	vms, err := b.ListVMs(ctx)
	if want := []string{"vm-a", "vm-b", "vm-c", "vm-d"}; err != nil || !reflect.DeepEqual(vmIDs(vms), want) {
		t.Fatalf("ListVMs: %v (err %v), want the ID-sorted union %v", vmIDs(vms), err, want)
	}
	if _, err := b.ListNodes(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.GetNode(ctx, "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.GetVM(ctx, "vm-c"); err != nil {
		t.Fatal(err)
	}
	want := []any{
		protocol.InventoryRequest{},
		protocol.InventoryRequest{NodesOnly: true},
		protocol.InventoryRequest{NodesOnly: true},
		protocol.InventoryRequest{VM: "vm-c"},
	}
	for i, gm := range []*fakeGM{gm0, gm1} {
		if got := gm.requests(); !reflect.DeepEqual(got, want) {
			t.Errorf("gm-%02d was asked %#v, want %#v", i, got, want)
		}
	}
}

// TestFailingGMIsSkipped: a GM that errors mid-listing is left out of the
// listing, and a caller that gives up gets its context's error.
func TestFailingGMIsSkipped(t *testing.T) {
	ok := &fakeGM{inv: protocol.InventoryResponse{
		Nodes: []protocol.InventoryNode{invNode("n0", time.Second, "vm-a")},
		VMs:   []types.VMStatus{invVM("vm-a", "n0")},
	}}
	broken := &fakeGM{fail: true}
	b := readRig(t, broken, ok)
	vms, err := b.ListVMs(context.Background())
	if err != nil || len(vms) != 1 || vms[0].ID != "vm-a" {
		t.Fatalf("ListVMs past a failing GM: %+v (err %v), want vm-a", vms, err)
	}
	if len(broken.requests()) != 1 {
		t.Fatalf("the failing GM was asked %d times, want 1", len(broken.requests()))
	}

	silent := &fakeGM{hang: true}
	b = readRig(t, silent, ok)
	asked := len(ok.requests())
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, err := b.ListVMs(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ListVMs with a cancelled context: %v, want context.Canceled", err)
	}
	if len(ok.requests()) != asked {
		t.Fatal("the listing went on after its context ended")
	}
}
