package main

// layers.go holds the isolated layer probes: timed calls into each package's
// public functions on a warm, realistically sized fixture. They run in the
// traced run only and fill the per-layer metrics that do not depend on the
// workload.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	apiv1 "snooze/api/v1"
	apiclient "snooze/api/v1/client"
	apiserver "snooze/api/v1/server"
	"snooze/internal/hierarchy"
	"snooze/internal/hypervisor"
	"snooze/internal/metrics"
	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/rest"
	"snooze/internal/scheduling"
	"snooze/internal/scheduling/view"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/telemetry/sketch"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// maxProbeIters ends a probe early: 10k iterations are enough for a median.
const maxProbeIters = 10000

// sampleOp calls fn until budget has passed or maxProbeIters calls were made
// (at least five) and returns the median of the durations fn reports. fn
// times its own operation, so it can leave fixture clean-up out; fast
// operations loop inside fn and report the mean (see loop).
func sampleOp(budget time.Duration, fn func() time.Duration) time.Duration {
	var ds []float64
	for start := time.Now(); len(ds) < 5 || (time.Since(start) < budget && len(ds) < maxProbeIters); {
		ds = append(ds, float64(fn()))
	}
	return time.Duration(median(ds))
}

// timed reports how long f takes.
func timed(f func()) func() time.Duration {
	return func() time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
}

// loop reports the mean time of f over k back-to-back calls.
func loop(k int, f func()) func() time.Duration {
	return func() time.Duration {
		start := time.Now()
		for i := 0; i < k; i++ {
			f()
		}
		return time.Since(start) / time.Duration(k)
	}
}

// busCall is a synchronous Bus.Call.
func busCall(bus *transport.Bus, to transport.Address, kind string, payload any) (any, error) {
	type outcome struct {
		reply any
		err   error
	}
	ch := make(chan outcome, 1)
	bus.Call("bench:probe", to, kind, payload, 30*time.Second, func(reply any, err error) { ch <- outcome{reply, err} })
	out := <-ch
	return out.reply, out.err
}

func probeVMSpec(i int) types.VMSpec {
	return types.VMSpec{ID: types.VMID(fmt.Sprintf("probe-%06d", i)), Requested: types.RV(0.02, 32, 0, 0)}
}

// probeNode returns a node status hosting n VMs and the VM statuses.
func probeNode(id string, n int) (types.NodeStatus, []types.VMStatus) {
	st := types.NodeStatus{
		Spec:  types.NodeSpec{ID: types.NodeID(id), Capacity: types.RV(nodeCPU, nodeMemMB, 1000, 1000)},
		Power: types.PowerOn, Generation: 1,
	}
	var vms []types.VMStatus
	for i := 0; i < n; i++ {
		spec := types.VMSpec{ID: types.VMID(fmt.Sprintf("%s-vm%03d", id, i)), Requested: types.RV(1.5, 4096, 10, 10)}
		st.VMs = append(st.VMs, spec.ID)
		st.Used = st.Used.Add(spec.Requested)
		st.Reserved = st.Reserved.Add(spec.Requested)
		vms = append(vms, types.VMStatus{Spec: spec, State: types.VMRunning, Node: st.Spec.ID, Used: spec.Requested})
	}
	return st, vms
}

// stubBackend answers the two API probes without a hierarchy behind it.
type stubBackend struct {
	apiv1.Backend // nil: the probes call nothing else
	vms           []apiv1.VM
}

func (s stubBackend) SubmitVMs(_ context.Context, specs []apiv1.VMSpec) (apiv1.SubmitResult, error) {
	placed := make(map[string]string, len(specs))
	for _, sp := range specs {
		placed[sp.ID] = "n000"
	}
	return apiv1.SubmitResult{Placed: placed}, nil
}

func (s stubBackend) ListVMs(context.Context) ([]apiv1.VM, error) { return s.vms, nil }

// runLayerProbes fills L with every isolated-call metric.
func runLayerProbes(L map[string]float64, budget time.Duration, smoke bool) error {
	probeIsolated(L, budget)
	if err := probeHTTP(L, budget); err != nil {
		return err
	}
	return probeHierarchy(L, budget, smoke)
}

// probeIsolated times the layers that need neither a listener nor a hierarchy.
func probeIsolated(L map[string]float64, budget time.Duration) {
	ctxNow := 10 * time.Minute // a runtime instant past every fixture sample

	// protocol: encoding/json of the DTO, then the kind-switched decoder.
	st16, vms16 := probeNode("n000", 16)
	var inv protocol.InventoryResponse
	for n := 0; n < 64; n++ {
		st, vms := probeNode(fmt.Sprintf("n%03d", n), 16)
		inv.Nodes = append(inv.Nodes, protocol.InventoryNode{Status: st, AgeNs: 1e8})
		inv.VMs = append(inv.VMs, vms...)
	}
	codecs := []struct {
		name    string
		kind    string
		payload any
		decode  func(string, json.RawMessage) (any, error)
	}{
		{"monitor16", protocol.KindMonitor, protocol.MonitorReport{Status: st16, VMs: vms16, AtNs: 1}, protocol.DecodeRequest},
		{"startvm", protocol.KindStartVM, protocol.StartVMRequest{Spec: probeVMSpec(1), TraceID: "0000000000000001", ParentSpan: "0000000000000002"}, protocol.DecodeRequest},
		{"place1", protocol.KindPlace, protocol.PlaceRequest{VMs: []types.VMSpec{probeVMSpec(1)}, TraceID: "0000000000000001", ParentSpan: "0000000000000001"}, protocol.DecodeRequest},
		{"submit1", protocol.KindSubmit, protocol.SubmitRequest{VMs: []types.VMSpec{probeVMSpec(1)}}, protocol.DecodeRequest},
		{"inventory1024", protocol.KindInventory, inv, protocol.DecodeReply},
	}
	for _, c := range codecs {
		data, _ := json.Marshal(c.payload) // the DTOs are plain structs; Marshal cannot fail
		L["protocol.encode_us."+c.name] = us(sampleOp(budget, timed(func() { _, _ = json.Marshal(c.payload) })))
		L["protocol.decode_us."+c.name] = us(sampleOp(budget, timed(func() { _, _ = c.decode(c.kind, data) })))
		if c.name == "monitor16" {
			const rounds = 200
			before := memSnapshot().Mallocs
			for i := 0; i < rounds; i++ {
				d, _ := json.Marshal(c.payload)
				_, _ = c.decode(c.kind, d)
			}
			L["protocol.allocs.monitor16"] = float64(memSnapshot().Mallocs-before) / rounds
		}
	}

	// simkernel, transport: the wall runtime's timer hop and an echo call.
	rt := simkernel.NewWallRuntime()
	fired := make(chan time.Time, 1)
	L["simkernel.after0_us"] = us(sampleOp(budget, func() time.Duration {
		start := time.Now()
		rt.After(0, func() { fired <- time.Now() })
		return (<-fired).Sub(start)
	}))
	bus := transport.NewBus(rt, transport.Config{})
	bus.Register("echo:0", func(req *transport.Request) { req.Respond(req.Payload) })
	L["transport.call_us"] = us(sampleOp(budget, timed(func() { _, _ = busCall(bus, "echo:0", "echo", 1) })))

	// telemetry, sketch: a store warmed with 64 nodes × 16 VMs × 300 reports.
	reg := metrics.NewRegistry()
	hub := telemetry.NewHub(telemetry.Options{Metrics: reg})
	statuses := make([]types.NodeStatus, 64)
	for n := range statuses {
		st, vms := probeNode(fmt.Sprintf("n%03d", n), 16)
		statuses[n] = st
		for i := 0; i < 300; i++ {
			at := time.Duration(i) * time.Second
			st.Used.CPU = 20 + float64((i*7+n)%13)
			hub.RecordNode(at, st)
			if n == 0 {
				hub.RecordVM(at, vms[0])
			}
		}
	}
	store := hub.Store()
	at := 300 * time.Second
	L["telemetry.append_ns"] = float64(sampleOp(budget, loop(1000, func() {
		at += time.Millisecond
		store.Append("node/n000", "cpu.used", at, 21)
	})))
	L["telemetry.record_node_us"] = us(sampleOp(budget, loop(100, func() {
		at += time.Millisecond
		hub.RecordNode(at, st16)
	})))
	L["telemetry.record_vm_us"] = us(sampleOp(budget, loop(100, func() {
		at += time.Millisecond
		hub.RecordVM(at, vms16[0])
	})))
	spec := telemetry.SummarySpec{Percentiles: []float64{50, 95}}
	L["telemetry.reduce_us"] = us(sampleOp(budget, loop(100, func() { _, _ = store.Reduce("node/n001", "util", 100*time.Second, 0, &spec) })))
	L["telemetry.query_us"] = us(sampleOp(budget, loop(100, func() { _ = store.Query("node/n001", "util", 0, 0) })))
	sk := sketch.New(store.SketchAlpha())
	v := 0.0
	L["sketch.insert_ns"] = float64(sampleOp(budget, loop(1000, func() {
		v += 0.37
		sk.Insert(v)
	})))

	// view, scheduling: one GM's 64 nodes, the GL's 2 groups.
	builder := view.Builder{Hub: hub, Cache: view.NewCache()}
	L["view.nodes64_us"] = us(sampleOp(budget, timed(func() { _ = builder.Nodes(ctxNow, statuses) })))
	sums := []types.GroupSummary{
		{GM: "gm-01", Total: types.RV(64*nodeCPU, 64*nodeMemMB, 64000, 64000), ActiveLCs: 64, VMs: 1024},
		{GM: "gm-02", Total: types.RV(64*nodeCPU, 64*nodeMemMB, 64000, 64000), ActiveLCs: 64, VMs: 1024},
	}
	for i := 0; i < 60; i++ {
		for _, s := range sums {
			hub.RecordGroup(time.Duration(i)*time.Second, s)
		}
	}
	L["view.groups2_us"] = us(sampleOp(budget, timed(func() { _ = builder.Groups(ctxNow, sums) })))
	nodes := builder.Nodes(ctxNow, statuses)
	groups := builder.Groups(ctxNow, sums)
	place, _ := scheduling.NewPlacementPolicy("round-robin")
	dispatch, _ := scheduling.NewDispatchPolicy("round-robin")
	vm := probeVMSpec(1)
	L["scheduling.place64_us"] = us(sampleOp(budget, timed(func() { _, _ = place.Place(vm, nodes, nil) })))
	L["scheduling.dispatch2_us"] = us(sampleOp(budget, loop(100, func() { _ = dispatch.Candidates(vm, groups, nil) })))

	// obs: one traced decision as the hierarchy records it (registry
	// observation and journal emit included, as snoozed wires the tracer).
	tracer := obs.New(obs.Config{Sample: 1, Metrics: reg, Emit: func(entity string, attrs map[string]string) {
		hub.Emit(telemetry.EventDecisionTrace, entity, ctxNow, telemetry.AttrsFromMap(attrs))
	}})
	L["obs.span8_us"] = us(sampleOp(budget, loop(10, func() {
		span := tracer.StartTrace(obs.KindPlacement, "vm/probe")
		span.SetPolicy("round-robin")
		for c := 0; c < 8; c++ {
			span.Candidate("n000", c == 7, "no-fit")
		}
		span.Finish("placed")
	})))

	// metrics: the registry's single mutex under two contending goroutines.
	contend := func(f func()) func() time.Duration {
		return func() time.Duration {
			const k = 2000
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < loadWorkers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < k; i++ {
						f()
					}
				}()
			}
			wg.Wait()
			return time.Since(start) / k
		}
	}
	L["metrics.inc_ns"] = float64(sampleOp(budget, contend(func() { reg.Inc("bench.counter", 1) })))
	L["metrics.observe_ns"] = float64(sampleOp(budget, contend(func() { reg.Observe("bench.series", 0.001) })))

	// hypervisor: VM start (stop is clean-up) and the monitor tick's reads.
	hvCfg := hypervisor.DefaultConfig()
	hvCfg.VMBootDelay = 0
	node := hypervisor.NewNode(rt, statuses[0].Spec, hvCfg)
	for i := 0; i < 16; i++ {
		_ = node.StartVM(probeVMSpec(1000 + i)) // an empty 64-CPU node fits 16 probe VMs
	}
	L["hypervisor.startvm_us"] = us(sampleOp(budget, func() time.Duration {
		d := timed(func() { _ = node.StartVM(vm) })()
		_ = node.StopVM(vm.ID)
		return d
	}))
	L["hypervisor.status16_us"] = us(sampleOp(budget, timed(func() {
		_ = node.Status()
		_ = node.VMs()
	})))
}

// probeHTTP times the two HTTP surfaces against loopback listeners.
func probeHTTP(L map[string]float64, budget time.Duration) error {
	// api: typed client → server → stub backend, one keep-alive connection.
	stub := stubBackend{}
	for i := 0; i < 2048; i++ {
		stub.vms = append(stub.vms, apiv1.VM{
			ID: fmt.Sprintf("r%07d-0", i), State: "running", Node: fmt.Sprintf("n%03d", i%32),
			Requested: apiv1.Resources{CPU: 0.4, MemoryMB: 1200}, Used: apiv1.Resources{CPU: 0.4, MemoryMB: 1200},
		})
	}
	apiLn, err := listen(apiserver.New(stub).Handler())
	if err != nil {
		return err
	}
	defer apiLn.Close()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	cli := apiclient.New(apiLn.url, apiclient.WithHTTPClient(&http.Client{Transport: tr}))
	ctx := context.Background()
	one := []apiv1.VMSpec{{ID: "r0000001-0", Requested: apiv1.Resources{CPU: 0.4, MemoryMB: 1200}}}
	var callErr error
	L["api.submit_stub_us"] = us(sampleOp(budget, timed(func() {
		if _, err := cli.SubmitVMs(ctx, one); err != nil {
			callErr = err
		}
	})))
	L["api.list2048_stub_us"] = us(sampleOp(budget, timed(func() {
		if vms, err := cli.ListVMs(ctx); err != nil || len(vms) != 2048 {
			callErr = fmt.Errorf("stub list: %d VMs, err=%v", len(vms), err)
		}
	})))
	if callErr != nil {
		return fmt.Errorf("api probe: %w", callErr)
	}

	// rest: a remote process hosting an EP; the thin client's call and a bus
	// call forwarded through a gateway proxy.
	remoteRT := simkernel.NewWallRuntime()
	remote := transport.NewBus(remoteRT, transport.Config{})
	ep := hierarchy.NewEP(remoteRT, remote, "ep:remote", 0)
	ep.Start()
	defer ep.Stop()
	restLn, err := listen(rest.NewServer(remote, 60*time.Second).Handler())
	if err != nil {
		return err
	}
	defer restLn.Close()
	defer func() {
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}()
	rc := rest.NewClient(30 * time.Second)
	L["rest.call_us"] = us(sampleOp(budget, timed(func() {
		if _, err := rc.Call(restLn.url, "ep:remote", protocol.KindGLQuery, struct{}{}); err != nil {
			callErr = err
		}
	})))
	local := transport.NewBus(simkernel.NewWallRuntime(), transport.Config{})
	rest.NewGateway(local, 30*time.Second).AddPeer("ep:remote", restLn.url)
	L["rest.forward_us"] = us(sampleOp(budget, timed(func() {
		if _, err := busCall(local, "ep:remote", protocol.KindGLQuery, struct{}{}); err != nil {
			callErr = err
		}
	})))
	if callErr != nil {
		return fmt.Errorf("rest probe: %w", callErr)
	}
	return nil
}

// probeHierarchy times direct bus calls into a formed hierarchy with
// co-hosted LCs holding 2048 VMs (1024 per GM).
func probeHierarchy(L map[string]float64, budget time.Duration, smoke bool) error {
	w := workloadSpec{Name: "layer-fixture", LocalLCs: 32, Monitor: 500 * time.Millisecond, Population: 2048, Tiny: true}
	if smoke {
		w.LocalLCs, w.Population = 8, 64
	}
	d, err := deploy(deployConfig{LocalLCs: w.LocalLCs, Monitor: w.Monitor})
	if err != nil {
		return err
	}
	defer d.Close()
	if _, err := d.awaitPlaceable(); err != nil {
		return err
	}
	g := &loadgen{d: d, w: w, pop: &population{nodes: d.nodes, limit: w.Population}}
	if err := g.preload(rand.New(rand.NewSource(1)), w.Population); err != nil {
		return err
	}
	ctx := context.Background()
	for deadline := time.Now().Add(setupTimeout); ; time.Sleep(20 * time.Millisecond) {
		if vms, err := d.backend.ListVMs(ctx); err == nil && len(vms) == w.Population {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("layer fixture: inventory never reached %d VMs", w.Population)
		}
	}
	var gl, gm transport.Address
	for _, m := range d.managers {
		if m.Role() == hierarchy.RoleGL {
			gl = m.Addr()
		} else if gm == "" {
			gm = m.Addr()
		}
	}

	seq := 0
	fresh := func(n int) []types.VMSpec {
		specs := make([]types.VMSpec, n)
		for i := range specs {
			seq++
			specs[i] = probeVMSpec(seq)
		}
		return specs
	}
	var callErr error
	// stopAll is the probes' clean-up: placed VMs end on their hypervisor.
	stopAll := func(placed map[types.VMID]types.NodeID, want int) {
		if len(placed) != want {
			callErr = fmt.Errorf("placed %d of %d VMs", len(placed), want)
		}
		for vm, node := range placed {
			_ = d.nodes[node].StopVM(vm)
		}
	}
	L["hierarchy.gl_submit1_us"] = us(sampleOp(budget, func() time.Duration {
		var reply any
		dur := timed(func() { reply, _ = busCall(d.bus, gl, protocol.KindSubmit, protocol.SubmitRequest{VMs: fresh(1)}) })()
		resp, _ := reply.(protocol.SubmitResponse)
		stopAll(resp.Placed, 1)
		return dur
	}))
	for _, n := range []int{1, 64} {
		L[fmt.Sprintf("hierarchy.gm_place%d_us", n)] = us(sampleOp(budget, func() time.Duration {
			var reply any
			dur := timed(func() { reply, _ = busCall(d.bus, gm, protocol.KindPlace, protocol.PlaceRequest{VMs: fresh(n)}) })()
			resp, _ := reply.(protocol.PlaceResponse)
			stopAll(resp.Placed, n)
			return dur
		}))
	}
	lc := d.localLCs[0]
	L["hierarchy.lc_start_us"] = us(sampleOp(budget, func() time.Duration {
		spec := fresh(1)[0]
		dur := timed(func() { _, _ = busCall(d.bus, lc.Addr(), protocol.KindStartVM, protocol.StartVMRequest{Spec: spec}) })()
		stopAll(map[types.VMID]types.NodeID{spec.ID: lc.NodeID()}, 1)
		return dur
	}))
	L["hierarchy.gm_inventory1024_us"] = us(sampleOp(budget, timed(func() {
		reply, _ := busCall(d.bus, gm, protocol.KindInventory, struct{}{})
		if inv, _ := reply.(protocol.InventoryResponse); len(inv.Nodes) == 0 {
			callErr = fmt.Errorf("empty inventory from %s", gm)
		}
	})))
	L["hierarchy.gl_topology_us"] = us(sampleOp(budget, timed(func() {
		_, _ = busCall(d.bus, gl, protocol.KindTopology, protocol.TopologyRequest{Deep: true})
	})))
	L["livebackend.inventory2048_us"] = us(sampleOp(budget, timed(func() { _, _ = d.backend.ListVMs(ctx) })))
	L["livebackend.gl_discover_us"] = us(sampleOp(budget, timed(func() { _, _ = busCall(d.bus, "ep:0", protocol.KindGLQuery, struct{}{}) })))

	// Monitor ingest: a burst of real reports from one GM's own LCs, timed
	// until the store holds every sample they carry.
	var reports []protocol.MonitorReport
	var from []transport.Address
	expect := uint64(0)
	for _, l := range d.localLCs {
		if l.GM() != gm {
			continue
		}
		node := d.nodes[l.NodeID()]
		rep := protocol.MonitorReport{Status: node.Status(), VMs: node.VMs()}
		reports = append(reports, rep)
		from = append(from, l.Addr())
		expect += 4 * uint64(1+len(rep.VMs))
	}
	if len(reports) == 0 {
		return fmt.Errorf("layer fixture: no LC joined %s", gm)
	}
	store := d.hub.Store()
	L["hierarchy.monitor_ingest_us"] = us(sampleOp(budget, func() time.Duration {
		target := store.TotalSamples() + expect
		start := time.Now()
		for i, rep := range reports {
			_ = d.bus.Send(from[i], gm, protocol.KindMonitor, rep)
		}
		for store.TotalSamples() < target && time.Since(start) < time.Second {
			time.Sleep(20 * time.Microsecond)
		}
		return time.Since(start) / time.Duration(len(reports))
	}))
	if callErr != nil {
		return fmt.Errorf("hierarchy probe: %w", callErr)
	}
	return nil
}
