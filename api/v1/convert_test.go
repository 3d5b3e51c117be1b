package apiv1

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"snooze/internal/metrics"
	"snooze/internal/protocol"
	"snooze/internal/telemetry"
	"snooze/internal/types"
)

func TestResourceVectorRoundTrip(t *testing.T) {
	rv := types.RV(2.5, 4096, 100, 50)
	got := ToResourceVector(FromResourceVector(rv))
	if got != rv {
		t.Fatalf("round trip: %+v != %+v", got, rv)
	}
}

func TestVMSpecRoundTrip(t *testing.T) {
	spec := VMSpec{ID: "vm-1", Requested: Resources{CPU: 2, MemoryMB: 2048}, TraceID: "bursty"}
	internal := ToVMSpec(spec)
	if internal.ID != "vm-1" || internal.Requested.Memory != 2048 || internal.TraceID != "bursty" {
		t.Fatalf("ToVMSpec: %+v", internal)
	}
	batch := ToVMSpecs([]VMSpec{spec, {ID: "vm-2"}})
	if len(batch) != 2 || batch[1].ID != "vm-2" {
		t.Fatalf("ToVMSpecs: %+v", batch)
	}
}

func TestFromVMStatusNodeOverride(t *testing.T) {
	st := types.VMStatus{
		Spec:  types.VMSpec{ID: "v", Requested: types.RV(1, 1024, 10, 10)},
		State: types.VMRunning,
		Node:  "from-status",
		Used:  types.RV(0.5, 512, 1, 1),
	}
	if vm := FromVMStatus(st, "override"); vm.Node != "override" {
		t.Fatalf("explicit node ignored: %+v", vm)
	}
	vm := FromVMStatus(st, "")
	if vm.Node != "from-status" || vm.State != "running" || vm.Used.CPU != 0.5 {
		t.Fatalf("status node fallback: %+v", vm)
	}
}

func TestFromNodeStatus(t *testing.T) {
	st := types.NodeStatus{
		Spec:     types.NodeSpec{ID: "n1", Capacity: types.RV(8, 32768, 1000, 1000)},
		Power:    types.PowerSuspended,
		Reserved: types.RV(2, 2048, 20, 20),
		VMs:      []types.VMID{"a", "b"},
		Idle:     false,
	}
	n := FromNodeStatus(st)
	if n.ID != "n1" || n.Power != "suspended" || len(n.VMs) != 2 || n.Capacity.CPU != 8 {
		t.Fatalf("FromNodeStatus: %+v", n)
	}
}

func TestFromSubmitResponse(t *testing.T) {
	resp := protocol.SubmitResponse{
		Placed:   map[types.VMID]types.NodeID{"a": "n1"},
		Unplaced: []types.VMID{"b"},
	}
	out := FromSubmitResponse(resp)
	if out.Placed["a"] != "n1" || len(out.Unplaced) != 1 || out.Unplaced[0] != "b" {
		t.Fatalf("FromSubmitResponse: %+v", out)
	}
}

func TestFromTopologyResponse(t *testing.T) {
	resp := protocol.TopologyResponse{
		GL: "mgr:gm-00",
		GMs: []protocol.TopologyGM{{
			GM:      "gm-01",
			Addr:    "mgr:gm-01",
			Summary: types.GroupSummary{GM: "gm-01", Total: types.RV(16, 65536, 2000, 2000), ActiveLCs: 2, VMs: 3},
			LCs:     []protocol.TopologyLC{{ID: "n1", Power: "on", VMs: 3, Capacity: types.RV(8, 32768, 1000, 1000)}},
		}},
	}
	topo := FromTopologyResponse(resp)
	if topo.GL != "mgr:gm-00" || len(topo.GMs) != 1 {
		t.Fatalf("FromTopologyResponse: %+v", topo)
	}
	gm := topo.GMs[0]
	if gm.Summary.ActiveLCs != 2 || gm.Summary.VMs != 3 || len(gm.LCs) != 1 || gm.LCs[0].Capacity.CPU != 8 {
		t.Fatalf("GM conversion: %+v", gm)
	}
}

func TestFromRegistry(t *testing.T) {
	if snap := FromRegistry(nil); snap.Counters != nil || snap.Series != nil || snap.Gauges != nil {
		t.Fatalf("nil registry: %+v", snap)
	}
	r := metrics.NewRegistry()
	r.Inc("c", 3)
	r.SetGauge("g", 1.5)
	for i := 0; i < 10; i++ {
		r.Observe("s", float64(i))
	}
	snap := FromRegistry(r)
	if snap.Counters["c"] != 3 || snap.Gauges["g"] != 1.5 {
		t.Fatalf("counters/gauges: %+v", snap)
	}
	if s := snap.Series["s"]; s.N != 10 || s.Min != 0 || s.Max != 9 {
		t.Fatalf("series summary: %+v", snap.Series)
	}
}

func TestPlanConsolidation(t *testing.T) {
	nodes := []Node{
		{ID: "n1", Power: "on", Capacity: Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}},
		{ID: "n2", Power: "on", Capacity: Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}},
		{ID: "n3", Power: "suspended", Capacity: Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}},
	}
	vms := []VM{
		{ID: "a", State: "running", Node: "n1", Requested: Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10}},
		{ID: "b", State: "running", Node: "n2", Requested: Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10}},
		{ID: "c", State: "pending", Node: "n1", Requested: Resources{CPU: 1, MemoryMB: 1024, NetRxMbps: 10, NetTxMbps: 10}},
	}
	plan, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Algorithm: AlgorithmFFD}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pending VM and suspended host are excluded; the 2 running VMs fit one
	// host.
	if plan.VMs != 2 || plan.HostsTotal != 2 || plan.HostsBefore != 2 || plan.HostsAfter != 1 {
		t.Fatalf("plan: %+v", plan)
	}
	if len(plan.Migrations) != 1 {
		t.Fatalf("migrations: %+v", plan.Migrations)
	}
	if _, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Algorithm: "magic"}, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown algorithm: %v", err)
	}
	// Default algorithm is ACO; empty inputs plan nothing without error.
	empty, err := PlanConsolidation(nil, nodes, ConsolidationRequest{}, nil)
	if err != nil || empty.Algorithm != AlgorithmACO || empty.VMs != 0 {
		t.Fatalf("empty plan: %+v %v", empty, err)
	}
}

func TestPlanConsolidationDemandModes(t *testing.T) {
	host := Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}
	nodes := []Node{
		{ID: "n1", Power: "on", Capacity: host, Reserved: Resources{CPU: 3, MemoryMB: 1024}},
		{ID: "n2", Power: "on", Capacity: host, Reserved: Resources{CPU: 3, MemoryMB: 1024}},
	}
	// At reservation pricing the pair shares a host.
	vms := []VM{
		{ID: "a", State: "running", Node: "n1", Requested: Resources{CPU: 3, MemoryMB: 1024}},
		{ID: "b", State: "running", Node: "n2", Requested: Resources{CPU: 3, MemoryMB: 1024}},
	}
	price := func(cpu float64) DemandFunc {
		return func(VM) types.ResourceVector { return types.ResourceVector{CPU: cpu, Memory: 512} }
	}
	hostsAfter := func(req ConsolidationRequest, demand DemandFunc) int {
		t.Helper()
		plan, err := PlanConsolidation(vms, nodes, req, demand)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		return plan.HostsAfter
	}
	ffd := ConsolidationRequest{Algorithm: AlgorithmFFD}
	ffdP95 := ConsolidationRequest{Algorithm: AlgorithmFFD, Demand: DemandP95}
	if n := hostsAfter(ffd, price(5)); n != 1 {
		t.Fatalf("requested pricing ignores measured demand: %d hosts", n)
	}
	// Measured demand above the reservation keeps hot VMs apart.
	if n := hostsAfter(ffdP95, price(5)); n != 2 {
		t.Fatalf("p95 pricing must not pack two 5-CPU demands onto 8 CPUs: %d hosts", n)
	}
	// Measured demand below the reservation does not shrink the VM: the
	// destination admits on reservations, so a tighter plan would be refused.
	vms[0].Requested.CPU, vms[1].Requested.CPU = 5, 5
	nodes[0].Reserved.CPU, nodes[1].Reserved.CPU = 5, 5
	if n := hostsAfter(ffdP95, price(1)); n != 2 {
		t.Fatalf("p95 pricing sized VMs below their reservation: %d hosts", n)
	}

	if _, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Demand: "peak"}, price(1)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown demand mode: %v", err)
	}
	if _, err := PlanConsolidation(vms, nodes, ConsolidationRequest{Demand: DemandP95}, nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("p95 without a pricing source: %v", err)
	}
}

// A dry run never plans into the reservation of a VM it does not move: n1
// runs nothing but hosts a suspended VM holding 6 of its 8 CPUs, so the two
// idle 3-CPU VMs must not be packed onto it, whatever they are priced at.
func TestPlanConsolidationSparesNonRunningReservations(t *testing.T) {
	host := Resources{CPU: 8, MemoryMB: 32768, NetRxMbps: 1000, NetTxMbps: 1000}
	nodes := []Node{
		{ID: "n1", Power: "on", Capacity: host, Reserved: Resources{CPU: 6, MemoryMB: 2048}},
		{ID: "n2", Power: "on", Capacity: host, Reserved: Resources{CPU: 3, MemoryMB: 1024}},
		{ID: "n3", Power: "on", Capacity: host, Reserved: Resources{CPU: 3, MemoryMB: 1024}},
	}
	vms := []VM{
		{ID: "parked", State: "suspended", Node: "n1", Requested: Resources{CPU: 6, MemoryMB: 2048}},
		{ID: "a", State: "running", Node: "n2", Requested: Resources{CPU: 3, MemoryMB: 1024}},
		{ID: "b", State: "running", Node: "n3", Requested: Resources{CPU: 3, MemoryMB: 1024}},
	}
	idle := func(VM) types.ResourceVector { return types.ResourceVector{CPU: 0.1, Memory: 64} }
	want := []Migration{{VM: "b", From: "n3", To: "n2"}}
	for _, req := range []ConsolidationRequest{
		{Algorithm: AlgorithmFFD, Demand: DemandP95},
		{Algorithm: AlgorithmACO, Demand: DemandP95},
		{Algorithm: AlgorithmFFD},
	} {
		plan, err := PlanConsolidation(vms, nodes, req, idle)
		if err != nil || plan.VMs != 2 || plan.HostsAfter != 1 || !reflect.DeepEqual(plan.Migrations, want) {
			t.Fatalf("%+v: %+v %v", req, plan, err)
		}
	}
}

func TestRunExperimentErrors(t *testing.T) {
	if _, err := RunExperiment(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperiment(ctx, "e1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
}

func TestQueryHubSeries(t *testing.T) {
	h := telemetry.NewHub(telemetry.Options{})
	for i := 0; i < 60; i++ {
		h.Record("node/n1", "util", time.Duration(i)*time.Second, float64(i%10)/10)
	}

	// Raw window with pagination.
	data, err := QueryHubSeries(h, SeriesQuery{Entity: "node/n1", Metric: "util", Limit: 25})
	if err != nil || data.Total != 60 || len(data.Points) != 25 || data.NextOffset != 25 {
		t.Fatalf("paged raw query: %+v %v", data, err)
	}
	next, err := QueryHubSeries(h, SeriesQuery{Entity: "node/n1", Metric: "util", Limit: 25, Offset: data.NextOffset})
	if err != nil || next.Points[0].AtNs != int64(25*time.Second) {
		t.Fatalf("second page: %+v %v", next, err)
	}

	// Windowed + downsampled.
	ds, err := QueryHubSeries(h, SeriesQuery{
		Entity: "node/n1", Metric: "util",
		FromNs: int64(10 * time.Second), ToNs: int64(49 * time.Second),
		Agg: "max", StepNs: int64(10 * time.Second),
	})
	if err != nil || ds.Total != 4 {
		t.Fatalf("downsampled: %+v %v", ds, err)
	}
	for _, p := range ds.Points {
		if p.Value != 0.9 {
			t.Fatalf("each 10s bucket contains a 0.9 peak: %+v", ds.Points)
		}
	}

	// Validation.
	for _, bad := range []SeriesQuery{
		{Metric: "util"},
		{Entity: "node/n1"},
		{Entity: "node/n1", Metric: "util", Agg: "median"},
		{Entity: "node/n1", Metric: "util", StepNs: 5},
		{Entity: "node/n1", Metric: "util", FromNs: -1},
		{Entity: "node/n1", Metric: "util", FromNs: 10, ToNs: 5},
	} {
		if _, err := QueryHubSeries(h, bad); !errors.Is(err, ErrInvalid) {
			t.Fatalf("query %+v: %v", bad, err)
		}
	}
}

func TestListHubSeriesAndWatchHub(t *testing.T) {
	h := telemetry.NewHub(telemetry.Options{})
	h.Record("node/n1", "util", 0, 1)
	h.Record("gm/g1", "vms", 0, 2)
	keys := ListHubSeries(h)
	if len(keys) != 2 || keys[0] != (SeriesKey{Entity: "gm/g1", Metric: "vms"}) {
		t.Fatalf("keys: %+v", keys)
	}

	h.Emit("vm.state", "vm/a", time.Second, telemetry.A("state", "placed"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := WatchHub(ctx, h, 0)
	select {
	case ev := <-stream.Events():
		if ev.Seq != 1 || ev.Type != "vm.state" || ev.AtNs != int64(time.Second) {
			t.Fatalf("replayed event: %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no replay")
	}
	live := h.Emit("node.overload", "node/n1", 2*time.Second, telemetry.Attrs{})
	select {
	case ev := <-stream.Events():
		if ev.Seq != live.Seq {
			t.Fatalf("live event: %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no live delivery")
	}
	stream.Close()
	select {
	case _, ok := <-stream.Events():
		if ok {
			t.Fatal("stream still delivering after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed after Close")
	}
	if stream.Err() != nil {
		t.Fatalf("clean close reports error: %v", stream.Err())
	}
}
