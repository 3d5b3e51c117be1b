package livebackend_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	apiv1 "snooze/api/v1"
	apiclient "snooze/api/v1/client"
	apiserver "snooze/api/v1/server"
	"snooze/internal/cluster"
	"snooze/internal/hierarchy"
	"snooze/internal/hypervisor"
	"snooze/internal/simkernel"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// liveRig boots a miniature wall-clock deployment: the control plane
// cmd/snoozed builds, with one node of the given capacity co-hosted on the
// same bus. It returns once the node's LC has joined a GM and that GM's
// summary has had time to reach the GL.
func liveRig(tb testing.TB, capacity types.ResourceVector) (*cluster.Control, *hypervisor.Node) {
	tb.Helper()
	rt := simkernel.NewWallRuntime()
	bus := transport.NewBus(rt, transport.Config{})

	mcfg := hierarchy.DefaultManagerConfig("", "")
	mcfg.HeartbeatPeriod = 200 * time.Millisecond
	mcfg.SummaryPeriod = 300 * time.Millisecond
	mcfg.SessionTTL = 2 * time.Second
	mcfg.LCTimeout = 5 * time.Second
	ctl, err := cluster.NewControl(rt, bus, cluster.ControlConfig{
		Managers:    2,
		Manager:     mcfg,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range ctl.Managers {
		tb.Cleanup(m.Stop)
	}
	for _, ep := range ctl.EPs {
		tb.Cleanup(ep.Stop)
	}

	node := hypervisor.NewNode(rt, types.NodeSpec{ID: "n1", Capacity: capacity}, hypervisor.DefaultConfig())
	lcCfg := hierarchy.DefaultLCConfig()
	lcCfg.MonitorPeriod = 300 * time.Millisecond
	lcCfg.GMTimeout = 5 * time.Second
	lc := hierarchy.NewLC(rt, bus, node, "lc:n1", func(types.NodeID) (*hypervisor.Node, bool) { return nil, false }, lcCfg)
	lc.Start()
	tb.Cleanup(lc.Stop)

	// Wait for the hierarchy to form: the LC joins a GM and the GM's
	// summary reaches the GL.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if lc.GM() != "" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if lc.GM() == "" {
		tb.Fatal("LC never joined a GM")
	}
	time.Sleep(time.Second)
	return ctl, node
}

// TestLiveHierarchyServesV1 boots a miniature wall-clock deployment (liveRig)
// and exercises the /v1 routes through the HTTP server and typed client.
func TestLiveHierarchyServesV1(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	ctl, node := liveRig(t, types.RV(8, 16384, 1000, 1000))
	srv := httptest.NewServer(apiserver.New(ctl.Backend).Handler())
	defer srv.Close()
	cli := apiclient.New(srv.URL)
	ctx := context.Background()

	topo, err := cli.Topology(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if topo.GL == "" || len(topo.GMs) == 0 {
		t.Fatalf("topology over /v1: %+v", topo)
	}

	result, err := cli.SubmitVMs(ctx, []apiv1.VMSpec{{
		ID:        "vm-live",
		Requested: apiv1.Resources{CPU: 2, MemoryMB: 2048, NetRxMbps: 10, NetTxMbps: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if result.Placed["vm-live"] != "n1" {
		t.Fatalf("submit over /v1: %+v", result)
	}
	if !node.HasVM("vm-live") {
		t.Fatal("VM not on the node after placement")
	}

	// The GM learns the VM from the next monitor report; the listing routes
	// aggregate GM inventories.
	deadline := time.Now().Add(10 * time.Second)
	var vm apiv1.VM
	for time.Now().Before(deadline) {
		vm, err = cli.GetVM(ctx, "vm-live")
		if err == nil {
			break
		}
		if !errors.Is(err, apiv1.ErrNotFound) {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("vm-live never appeared in the inventory: %v", err)
	}
	if vm.Node != "n1" {
		t.Fatalf("GetVM: %+v", vm)
	}
	nodes, err := cli.ListNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].ID != "n1" {
		t.Fatalf("ListNodes: %+v", nodes)
	}

	// Live deployments have no fault injector: typed 501 across the wire.
	if err := cli.FailNode(ctx, "n1"); !errors.Is(err, apiv1.ErrUnsupported) {
		t.Fatalf("FailNode on live backend: %v", err)
	}

	snap, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["gl.submissions"] == 0 {
		t.Fatalf("metrics over /v1 missing gl.submissions: %+v", snap.Counters)
	}
}

// BenchmarkBackendSubmit times a one-VM Backend.Submit on liveRig's
// wall-clock deployment: GL dispatch, GM placement and the LC's start of the
// VM. Each VM is stopped on the node right after it is placed, so that the
// node and the monitor reports stay small however many operations run.
func BenchmarkBackendSubmit(b *testing.B) {
	ctl, node := liveRig(b, types.RV(1024, 1<<24, 1e4, 1e4))
	vms := make([][]types.VMSpec, b.N)
	for i := range vms {
		vms[i] = []types.VMSpec{{ID: types.VMID(fmt.Sprintf("vm-%07d", i)), Requested: types.RV(0.001, 1, 0, 0)}}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range vms {
		resp, err := ctl.Backend.Submit(ctx, vms[i])
		if err != nil || len(resp.Placed) != 1 {
			b.Fatalf("submit %d: %+v (err %v)", i, resp, err)
		}
		if err := node.StopVM(vms[i][0].ID); err != nil {
			b.Fatal(err)
		}
	}
}
