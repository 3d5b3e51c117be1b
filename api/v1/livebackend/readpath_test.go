package livebackend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// rig is a backend over a bus holding a counting entry point ep:0, the GLs
// it may name and the GMs they list.
type rig struct {
	*Backend
	bus  *transport.Bus
	topo protocol.TopologyResponse
	gl   *fakeGL // mgr:gl

	mu     sync.Mutex
	leader transport.Address // what ep:0 names
	asked  int               // ep.gl-query calls ep:0 answered
}

// readRig is a rig whose entry point names mgr:gl, a GL that lists the given
// GMs in order.
func readRig(t *testing.T, gms ...*fakeGM) *rig {
	t.Helper()
	r := &rig{bus: transport.NewBus(simkernel.NewWallRuntime(), transport.Config{}), leader: "mgr:gl"}
	r.bus.Register("ep:0", func(req *transport.Request) {
		r.mu.Lock()
		r.asked++
		gl := r.leader
		r.mu.Unlock()
		req.Respond(protocol.GLQueryResponse{Addr: string(gl), Known: true})
	})
	for i, gm := range gms {
		addr := fmt.Sprintf("mgr:gm-%02d", i)
		r.bus.Register(transport.Address(addr), gm.handle)
		r.topo.GMs = append(r.topo.GMs, protocol.TopologyGM{GM: types.GroupManagerID(addr[4:]), Addr: addr})
	}
	r.gl = r.addGL("mgr:gl")
	r.Backend = New(Config{Bus: r.bus, CallTimeout: 5 * time.Second})
	return r
}

// addGL registers a scripted GL at addr.
func (r *rig) addGL(addr transport.Address) *fakeGL {
	gl := &fakeGL{addr: addr, topo: r.topo}
	r.bus.Register(addr, gl.handle)
	return gl
}

// name makes ep:0 name gl from now on.
func (r *rig) name(gl transport.Address) {
	r.mu.Lock()
	r.leader = gl
	r.mu.Unlock()
}

// epAsks is how many GL queries ep:0 answered.
func (r *rig) epAsks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.asked
}

// fakeGL is a scripted group leader: it answers gl.topology with a fixed
// topology and places every submitted VM on a node named after itself, and
// counts what it was sent.
type fakeGL struct {
	addr transport.Address
	topo protocol.TopologyResponse

	mu                  sync.Mutex
	submits, topologies int
	// notLeader makes it refuse both as a demoted GL does; hang makes it
	// not answer a submission at all.
	notLeader, hang bool
}

func (l *fakeGL) handle(req *transport.Request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch req.Kind {
	case protocol.KindSubmit:
		l.submits++
		switch {
		case l.notLeader:
			req.RespondErr(protocol.ErrNotLeader)
		case !l.hang:
			resp := protocol.SubmitResponse{Placed: make(map[types.VMID]types.NodeID)}
			for _, vm := range req.Payload.(protocol.SubmitRequest).VMs {
				resp.Placed[vm.ID] = types.NodeID(l.addr)
			}
			req.Respond(resp)
		}
	case protocol.KindTopology:
		l.topologies++
		if l.notLeader {
			req.RespondErr(protocol.ErrNotLeader)
		} else {
			req.Respond(l.topo)
		}
	}
}

// script sets how the GL answers from now on.
func (l *fakeGL) script(notLeader, hang bool) {
	l.mu.Lock()
	l.notLeader, l.hang = notLeader, hang
	l.mu.Unlock()
}

func (l *fakeGL) counts() (submits, topologies int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.submits, l.topologies
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

// TestMergedListingMatchesSort checks the k-way merge behind ListVMs against
// the concatenate-then-sort it replaces, over random multi-GM replies in which
// nodes are claimed by several GMs with different ages and different VM sets
// (stale claims). VM IDs are unique per node, as the hierarchy keeps them, so
// the sorted reference is unambiguous.
func TestMergedListingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		replies := make([]protocol.InventoryResponse, 1+rng.Intn(5))
		for node, nodes := 0, rng.Intn(12); node < nodes; node++ {
			id := fmt.Sprintf("n%02d", node)
			var hosted []string
			for v := rng.Intn(6); v > 0; v-- {
				hosted = append(hosted, fmt.Sprintf("vm-%03d", rng.Intn(1000))+"-"+id)
			}
			for ri := range replies {
				if rng.Intn(3) == 0 {
					continue // this GM does not claim the node
				}
				claimed := slices.Clone(hosted)
				rng.Shuffle(len(claimed), func(i, j int) { claimed[i], claimed[j] = claimed[j], claimed[i] })
				claimed = claimed[:rng.Intn(len(claimed)+1)] // a stale claim lists a subset
				replies[ri].Nodes = append(replies[ri].Nodes, invNode(id, time.Duration(rng.Intn(4))*time.Second, claimed...))
				for _, vm := range claimed {
					replies[ri].VMs = append(replies[ri].VMs, invVM(vm, id))
				}
			}
		}
		for ri := range replies {
			slices.SortFunc(replies[ri].VMs, func(a, b types.VMStatus) int { return strings.Compare(string(a.Spec.ID), string(b.Spec.ID)) })
		}
		owner := freshest(replies)
		var want []apiv1.VM
		for ri := range replies {
			for _, vm := range replies[ri].VMs {
				if c, ok := owner[vm.Node]; ok && c.reply == ri {
					want = append(want, apiv1.FromVMStatus(vm, ""))
				}
			}
		}
		apiv1.SortVMs(want)
		if got := vms(replies, owner); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: merge %v, want %v", trial, vmIDs(got), vmIDs(want))
		}
	}
	// A reply out of ID order still yields a sorted listing.
	unsorted := []protocol.InventoryResponse{{
		Nodes: []protocol.InventoryNode{invNode("n0", 0, "vm-b", "vm-a")},
		VMs:   []types.VMStatus{invVM("vm-b", "n0"), invVM("vm-a", "n0")},
	}}
	if got := vmIDs(vms(unsorted, freshest(unsorted))); !reflect.DeepEqual(got, []string{"vm-a", "vm-b"}) {
		t.Fatalf("unsorted reply: %v", got)
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

// TestOneGLQueryPerLeader: reads and submissions reuse the GL the entry
// point named once.
func TestOneGLQueryPerLeader(t *testing.T) {
	r := readRig(t, &fakeGM{inv: protocol.InventoryResponse{
		Nodes: []protocol.InventoryNode{invNode("n0", time.Second, "vm-a")},
		VMs:   []types.VMStatus{invVM("vm-a", "n0")},
	}})
	gl := r.gl
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := r.ListVMs(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ListNodes(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Topology(ctx, false); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Submit(ctx, []types.VMSpec{{ID: types.VMID(fmt.Sprintf("vm-%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	submits, topologies := gl.counts()
	if r.epAsks() != 1 || submits != 3 || topologies != 9 {
		t.Fatalf("9 reads and 3 submits: %d GL queries, the GL got %d submits and %d topology calls; want 1, 3, 9",
			r.epAsks(), submits, topologies)
	}
}

// TestNotLeaderRediscoversOnce: a GL that refuses as not the leader costs one
// more GL query, and the call lands on the GL the entry point names then. A
// refusal that persists after that one retry is unavailability.
func TestNotLeaderRediscoversOnce(t *testing.T) {
	r := readRig(t)
	old := r.gl
	ctx := context.Background()
	if _, err := r.Submit(ctx, []types.VMSpec{{ID: "vm-1"}}); err != nil {
		t.Fatal(err)
	}
	next := r.addGL("mgr:gl-2")
	old.script(true, false)
	r.name(next.addr)

	resp, err := r.Submit(ctx, []types.VMSpec{{ID: "vm-2"}})
	if err != nil || resp.Placed["vm-2"] != "mgr:gl-2" {
		t.Fatalf("submit after the demotion: %+v (err %v), want vm-2 placed by mgr:gl-2", resp, err)
	}
	if oldSubmits, _ := old.counts(); r.epAsks() != 2 || oldSubmits != 2 {
		t.Fatalf("%d GL queries, the old GL got %d submits; want 2 and 2", r.epAsks(), oldSubmits)
	}
	if _, err := r.Topology(ctx, false); err != nil {
		t.Fatal(err)
	}
	if _, topologies := next.counts(); r.epAsks() != 2 || topologies != 1 {
		t.Fatalf("a read after the rediscovery: %d GL queries, the new GL got %d topology calls; want 2 and 1", r.epAsks(), topologies)
	}

	// A read is redirected the same way.
	third := r.addGL("mgr:gl-3")
	next.script(true, false)
	r.name(third.addr)
	if _, err := r.Topology(ctx, false); err != nil {
		t.Fatal(err)
	}
	if _, topologies := third.counts(); r.epAsks() != 3 || topologies != 1 {
		t.Fatalf("a read after the next demotion: %d GL queries, the new GL got %d topology calls; want 3 and 1", r.epAsks(), topologies)
	}

	// The entry point still names a GL that refuses: one retry, then 503.
	third.script(true, false)
	_, err = r.Submit(ctx, []types.VMSpec{{ID: "vm-3"}})
	if !errors.Is(err, apiv1.ErrUnavailable) || !errors.Is(err, protocol.ErrNotLeader) {
		t.Fatalf("submit to a GL that keeps refusing: %v, want ErrUnavailable wrapping ErrNotLeader", err)
	}
	if submits, _ := third.counts(); r.epAsks() != 4 || submits != 2 {
		t.Fatalf("%d GL queries, the refusing GL got %d submits; want 4 and 2", r.epAsks(), submits)
	}
}

// TestUnreachableGLIsRediscovered: a call the bus refuses because the GL in
// the cell is gone was never delivered, so even a submission is resent, once,
// to the GL the entry point names then.
func TestUnreachableGLIsRediscovered(t *testing.T) {
	r := readRig(t)
	ctx := context.Background()
	if _, err := r.Submit(ctx, []types.VMSpec{{ID: "vm-1"}}); err != nil {
		t.Fatal(err)
	}
	r.bus.Unregister(r.gl.addr)
	next := r.addGL("mgr:gl-2")
	r.name(next.addr)
	resp, err := r.Submit(ctx, []types.VMSpec{{ID: "vm-2"}})
	if err != nil || resp.Placed["vm-2"] != "mgr:gl-2" {
		t.Fatalf("submit after the GL went away: %+v (err %v), want vm-2 placed by mgr:gl-2", resp, err)
	}
	if r.epAsks() != 2 {
		t.Fatalf("%d GL queries, want 2", r.epAsks())
	}
}

// TestSubmitTimeoutIsNotRetried: a submission whose gl.submit times out may
// have reached the GL, so it is delivered once and fails; the GL is
// forgotten, so the next call asks the entry point again.
func TestSubmitTimeoutIsNotRetried(t *testing.T) {
	r := readRig(t)
	gl := r.gl
	ctx := context.Background()
	if _, err := r.Submit(ctx, []types.VMSpec{{ID: "vm-1"}}); err != nil {
		t.Fatal(err)
	}
	gl.script(false, true)
	_, err := r.WithCallTimeout(50*time.Millisecond).Submit(ctx, []types.VMSpec{{ID: "vm-2"}})
	if !errors.Is(err, apiv1.ErrUnavailable) || !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("submit to a silent GL: %v, want ErrUnavailable wrapping a timeout", err)
	}
	if submits, _ := gl.counts(); r.epAsks() != 1 || submits != 2 {
		t.Fatalf("%d GL queries, the GL got %d submits; want 1 and 2", r.epAsks(), submits)
	}
	gl.script(false, false)
	if _, err := r.Submit(ctx, []types.VMSpec{{ID: "vm-3"}}); err != nil || r.epAsks() != 2 {
		t.Fatalf("the next submit: err %v, %d GL queries; want nil and 2", err, r.epAsks())
	}
}

// TestCallTimeoutCopiesShareTheLeader: a WithCallTimeout copy uses and fills
// the same GL cell as the backend it came from.
func TestCallTimeoutCopiesShareTheLeader(t *testing.T) {
	r := readRig(t, &fakeGM{})
	ctx := context.Background()
	if _, err := r.WithCallTimeout(time.Second).Submit(ctx, []types.VMSpec{{ID: "vm-1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ListNodes(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WithCallTimeout(2*time.Second).Hierarchy(ctx, false); err != nil {
		t.Fatal(err)
	}
	if r.epAsks() != 1 {
		t.Fatalf("%d GL queries, want 1", r.epAsks())
	}
}

// TestLeaderCellForgetsOnlyTheFailedGL: a late failure from an old GL leaves
// a newer address in place.
func TestLeaderCellForgetsOnlyTheFailedGL(t *testing.T) {
	var c leaderCell
	c.set("mgr:gl-2")
	c.forget("mgr:gl")
	if c.get() != "mgr:gl-2" {
		t.Fatalf("forgetting the old GL cleared the new one: %q", c.get())
	}
	c.forget("mgr:gl-2")
	if c.get() != "" {
		t.Fatalf("forgetting the GL left %q", c.get())
	}
}
