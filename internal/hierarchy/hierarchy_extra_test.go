package hierarchy

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"snooze/internal/consolidation/online"
	"snooze/internal/metrics"
	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/resource"
	"snooze/internal/scheduling"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

func metricsRegistry() *metrics.Registry { return metrics.NewRegistry() }

func TestLCStopRemovesFromBus(t *testing.T) {
	r := newRig(20)
	r.manager("m0")
	r.manager("m1")
	lc := r.lc("n1")
	r.settle(20 * time.Second)
	if lc.NodeID() != "n1" {
		t.Fatalf("NodeID: %s", lc.NodeID())
	}
	lc.Stop()
	if err := r.bus.Send("test", lc.Addr(), protocol.KindStopVM, protocol.StopVMRequest{VM: "x"}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("stopped LC still reachable: %v", err)
	}
}

func TestEPStopAndAddr(t *testing.T) {
	r := newRig(21)
	ep := NewEP(r.k, r.bus, "ep:x", 0)
	ep.Start()
	if ep.Addr() != "ep:x" {
		t.Fatalf("Addr: %s", ep.Addr())
	}
	ep.Stop()
	if err := r.bus.Send("test", "ep:x", protocol.KindGLQuery, struct{}{}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("stopped EP still reachable: %v", err)
	}
}

func TestManagerUnknownKind(t *testing.T) {
	r := newRig(22)
	m := r.manager("m0")
	r.settle(10 * time.Second)
	var gotErr error
	r.bus.Call("test", m.Addr(), "bogus.kind", struct{}{}, time.Second, func(_ any, err error) { gotErr = err })
	r.settle(time.Second)
	if gotErr == nil {
		t.Fatal("unknown kind accepted")
	}
	if m.ID() != "m0" {
		t.Fatalf("ID: %s", m.ID())
	}
}

func TestLCUnknownKind(t *testing.T) {
	r := newRig(23)
	r.manager("m0")
	r.manager("m1")
	lc := r.lc("n1")
	r.settle(20 * time.Second)
	var gotErr error
	r.bus.Call("test", lc.Addr(), "bogus.kind", struct{}{}, time.Second, func(_ any, err error) { gotErr = err })
	r.settle(time.Second)
	if gotErr == nil {
		t.Fatal("unknown kind accepted by LC")
	}
	// OOB endpoint likewise rejects non-wake messages.
	gotErr = nil
	r.bus.Call("test", OOBAddress(lc.Addr()), "bogus.kind", struct{}{}, time.Second, func(_ any, err error) { gotErr = err })
	r.settle(time.Second)
	if gotErr == nil {
		t.Fatal("unknown kind accepted by OOB endpoint")
	}
}

func TestTopologyRefusedByNonLeader(t *testing.T) {
	r := newRig(24)
	r.manager("m0")
	m1 := r.manager("m1")
	r.settle(20 * time.Second)
	if m1.Role() != RoleGM {
		t.Fatalf("fixture: m1 role %v", m1.Role())
	}
	var gotErr error
	r.bus.Call("test", m1.Addr(), protocol.KindTopology, struct{}{}, time.Second, func(_ any, err error) { gotErr = err })
	r.settle(time.Second)
	if gotErr == nil {
		t.Fatal("GM answered a topology query meant for the GL")
	}
}

func TestLCAssignWithNoGMs(t *testing.T) {
	r := newRig(25)
	m0 := r.manager("m0") // lone manager: becomes GL, no GMs exist
	r.settle(10 * time.Second)
	var resp protocol.LCAssignResponse
	r.bus.Call("test", m0.Addr(), protocol.KindLCAssign, protocol.LCAssignRequest{}, time.Second,
		func(reply any, err error) {
			if err == nil {
				resp = reply.(protocol.LCAssignResponse)
			}
		})
	r.settle(time.Second)
	if resp.Addr != "" {
		t.Fatalf("assignment without GMs: %+v", resp)
	}
}

func TestSubmitEmptyBatch(t *testing.T) {
	r := newRig(26)
	m0 := r.manager("m0")
	r.settle(10 * time.Second)
	var resp protocol.SubmitResponse
	done := false
	r.bus.Call("test", m0.Addr(), protocol.KindSubmit, protocol.SubmitRequest{}, time.Second,
		func(reply any, err error) {
			if err == nil {
				resp = reply.(protocol.SubmitResponse)
			}
			done = true
		})
	r.settle(time.Second)
	if !done || len(resp.Placed) != 0 || len(resp.Unplaced) != 0 {
		t.Fatalf("empty submit: done=%v %+v", done, resp)
	}
}

func TestPlaceRequestToGL(t *testing.T) {
	// A placement probe sent to a GL-role manager reports everything
	// unplaced rather than hanging.
	r := newRig(27)
	m0 := r.manager("m0")
	r.settle(10 * time.Second)
	var resp protocol.PlaceResponse
	r.bus.Call("test", m0.Addr(), protocol.KindPlace,
		protocol.PlaceRequest{VMs: []types.VMSpec{{ID: "v", Requested: types.RV(1, 1, 1, 1)}}},
		time.Second, func(reply any, err error) {
			if err == nil {
				resp = reply.(protocol.PlaceResponse)
			}
		})
	r.settle(time.Second)
	if len(resp.Unplaced) != 1 {
		t.Fatalf("GL place probe: %+v", resp)
	}
}

func TestHelperFunctions(t *testing.T) {
	ids := vmIDs([]types.VMSpec{{ID: "a"}, {ID: "b"}})
	if len(ids) != 2 || ids[0] != "a" {
		t.Fatalf("vmIDs: %v", ids)
	}
	out := removeVMID([]types.VMID{"a", "b", "c"}, "b")
	if len(out) != 2 || out[0] != "a" || out[1] != "c" {
		t.Fatalf("removeVMID: %v", out)
	}
	if got := removeVMID([]types.VMID{"a"}, "zz"); len(got) != 1 {
		t.Fatalf("removeVMID missing: %v", got)
	}
}

func TestLCBusyAccessor(t *testing.T) {
	r := newRig(28)
	r.manager("m0")
	m1 := r.manager("m1")
	r.lc("n1")
	r.settle(20 * time.Second)
	if got := m1.LCBusy(); len(got) != 0 {
		t.Fatalf("busy on idle cluster: %v", got)
	}
}

func TestShedAndRejoin(t *testing.T) {
	r := newRig(29)
	r.manager("m0")
	m1 := r.manager("m1")
	m2 := r.manager("m2")
	// Join 6 LCs; with least-loaded assignment they spread 3/3.
	lcs := make([]*LC, 6)
	for i := range lcs {
		lcs[i] = r.lc(string(rune('a' + i)))
	}
	r.settle(30 * time.Second)
	count := func(m *Manager) int { a, s := m.LCCount(); return a + s }
	if count(m1)+count(m2) != 6 {
		t.Fatalf("fixture: %d + %d LCs", count(m1), count(m2))
	}
	donor := m1
	if count(m2) > count(m1) {
		donor = m2
	}
	before := count(donor)
	var resp protocol.ShedResponse
	r.bus.Call("test", donor.Addr(), protocol.KindShed, protocol.ShedRequest{Count: 2}, time.Second,
		func(reply any, err error) {
			if err == nil {
				resp = reply.(protocol.ShedResponse)
			}
		})
	r.settle(time.Second)
	if resp.Released != 2 {
		t.Fatalf("released: %d", resp.Released)
	}
	if got := count(donor); got != before-2 {
		t.Fatalf("donor LC count: %d -> %d", before, got)
	}
	// Shed LCs rejoin the hierarchy within a few heartbeats.
	r.settle(30 * time.Second)
	total := 0
	for _, m := range []*Manager{m1, m2} {
		total += count(m)
	}
	if total != 6 {
		t.Fatalf("LCs lost after shed: %d", total)
	}
}

func TestShedZeroAndBadPayload(t *testing.T) {
	r := newRig(30)
	r.manager("m0")
	m1 := r.manager("m1")
	r.lc("n1")
	r.settle(20 * time.Second)
	var resp protocol.ShedResponse
	r.bus.Call("test", m1.Addr(), protocol.KindShed, protocol.ShedRequest{Count: 0}, time.Second,
		func(reply any, err error) {
			if err == nil {
				resp = reply.(protocol.ShedResponse)
			}
		})
	r.settle(time.Second)
	if resp.Released != 0 {
		t.Fatalf("released on zero request: %d", resp.Released)
	}
	var gotErr error
	r.bus.Call("test", m1.Addr(), protocol.KindShed, "wrong type", time.Second,
		func(_ any, err error) { gotErr = err })
	r.settle(time.Second)
	if gotErr == nil {
		t.Fatal("bad shed payload accepted")
	}
}

func TestLinearSearchSkipsFragmentedGM(t *testing.T) {
	// Section II-C: "when a client submits a VM requesting 2GB ... and a GM
	// reports 4GB available it does not necessary mean that the VM can be
	// finally placed on this GM as its available memory could be
	// distributed among multiple LCs". The GL must fall through to the next
	// candidate GM: a one-VM submission is a linear probe over the ranked
	// GMs, one PlaceRequest at a time, traced as one dispatch span.
	r := newRig(31)
	reg := metricsRegistry()
	tracer := obs.New(obs.Config{Now: r.k.Now})
	var probed []transport.Address // KindPlace targets, in arrival order
	mkManager := func(id string) *Manager {
		cfg := DefaultManagerConfig(types.GroupManagerID(id), transport.Address("mgr:"+id))
		cfg.Metrics = reg
		cfg.Tracer = tracer
		m := NewManager(r.k, r.bus, r.svc, cfg)
		if err := m.Start(); err != nil {
			panic(err)
		}
		r.bus.Register(m.Addr(), func(req *transport.Request) {
			if req.Kind == protocol.KindPlace {
				probed = append(probed, req.To)
			}
			m.handle(req)
		})
		return m
	}
	gl := mkManager("m0") // becomes GL
	r.settle(5 * time.Second)

	// m1 and m2 each get two LCs, each half-filled: 4 CPU free per LC, 8
	// CPU free in the summary — fragmented. m3 joins last with one empty LC.
	for _, g := range []struct {
		gm  string
		lcs []string
	}{
		{"m1", []string{"frag-a", "frag-b"}},
		{"m2", []string{"frag-c", "frag-d"}},
		{"m3", []string{"roomy"}},
	} {
		m := mkManager(g.gm)
		r.settle(10 * time.Second)
		for _, n := range g.lcs {
			lc := r.lc(n)
			r.settle(20 * time.Second)
			if lc.GM() != m.Addr() {
				t.Fatalf("fixture: LC %s on %q, want %q", n, lc.GM(), m.Addr())
			}
			if n == "roomy" {
				continue
			}
			if err := r.nodes[types.NodeID(n)].StartVM(types.VMSpec{
				ID: types.VMID("filler-" + n), Requested: types.RV(4, 4096, 10, 10),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.settle(10 * time.Second) // summaries propagate

	// Submit a 6-CPU VM to the GL: the summaries of m1 and m2 show 8 CPU
	// free so both are candidates, but no single LC fits; the linear search
	// must place it on m3's empty LC.
	var resp protocol.SubmitResponse
	var rerr error
	r.bus.Call("test", gl.Addr(), protocol.KindSubmit,
		protocol.SubmitRequest{VMs: []types.VMSpec{{ID: "big", Requested: types.RV(6, 6144, 10, 10)}}}, 2*time.Minute,
		func(reply any, err error) {
			rerr = err
			if err == nil {
				resp = reply.(protocol.SubmitResponse)
			}
		})
	r.settle(time.Minute)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if resp.Placed["big"] != "roomy" {
		t.Fatalf("placement: %+v", resp)
	}
	// Round-robin's first ranking is m1, m2, m3: three probes in that order,
	// the third one placing.
	if want := []transport.Address{"mgr:m1", "mgr:m2", "mgr:m3"}; !reflect.DeepEqual(probed, want) {
		t.Fatalf("PlaceRequest targets %v, want %v", probed, want)
	}
	if depths := reg.Series("gl.probe-depth"); !reflect.DeepEqual(depths, []float64{3}) {
		t.Fatalf("gl.probe-depth = %v, want [3]", depths)
	}
	// One dispatch span on vm/big covers all three rounds and resolves every
	// candidate: the rejecting GMs, then the chosen one.
	spans := tracer.Select(obs.Query{Kind: obs.KindDispatch})
	if len(spans) != 1 || spans[0].Entity != "vm/big" || spans[0].Outcome != "placed" || spans[0].Target != "m3" {
		t.Fatalf("dispatch spans: %+v", spans)
	}
	wantCands := []obs.Candidate{
		{ID: "m1", Reason: "place-rejected"},
		{ID: "m2", Reason: "place-rejected"},
		{ID: "m3", Chosen: true},
	}
	if !reflect.DeepEqual(spans[0].Candidates, wantCands) {
		t.Fatalf("dispatch candidates %+v, want %+v", spans[0].Candidates, wantCands)
	}
	if spans[0].Attrs["probe-depth"] != "3" || spans[0].Attrs["node"] != "roomy" {
		t.Fatalf("dispatch attrs: %+v", spans[0].Attrs)
	}
}

func TestManagerConfigWithDefaults(t *testing.T) {
	// One normaliser: a zero config and the default config are the same
	// configuration.
	zero, def := ManagerConfig{}.withDefaults(), DefaultManagerConfig("", "").withDefaults()
	if !reflect.DeepEqual(zero, def) {
		t.Fatalf("zero config normalises to\n%+v\ndefault config to\n%+v", zero, def)
	}
	if zero.HeartbeatPeriod == 0 || zero.Dispatch == nil || zero.ViewHorizon == 0 || zero.VMLivenessGrace != 4*zero.LCTimeout {
		t.Fatalf("defaults not filled: %+v", zero)
	}

	// Every explicitly set field survives. The reflection walk fails when a
	// field is added to ManagerConfig without being set here.
	set := ManagerConfig{
		ID: "gm-x", Addr: "mgr:gm-x",
		HeartbeatPeriod: time.Second, SummaryPeriod: 3 * time.Second, LCTimeout: 5 * time.Second,
		GMTimeout: 7 * time.Second, CallTimeout: 11 * time.Second, SessionTTL: 13 * time.Second,
		Dispatch: scheduling.LeastLoadedDispatch{}, Placement: scheduling.BestFit{},
		Overload: scheduling.TrendAwareRelocation{}, Underload: scheduling.TrendAwareUnderload{},
		Estimator: resource.MaxWindow{}, ViewHorizon: time.Minute,
		EnergyEnabled: true, IdleThreshold: 17 * time.Second, PendingTimeout: 19 * time.Second,
		Consolidation:         online.Config{Enabled: true},
		RescheduleOnLCFailure: true, VMLivenessGrace: -1,
		Metrics: metricsRegistry(), Tracer: obs.New(obs.Config{}),
		Telemetry: telemetry.NewHub(telemetry.Options{}),
	}
	v := reflect.ValueOf(set)
	if n := v.NumField(); n > 23 {
		t.Fatalf("ManagerConfig has %d fields; ROADMAP tracks the count (23) and it only goes down", n)
	}
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("test does not set ManagerConfig.%s", v.Type().Field(i).Name)
		}
	}
	if got := set.withDefaults(); !reflect.DeepEqual(got, set) {
		t.Fatalf("explicit fields overwritten:\n got %+v\nwant %+v", got, set)
	}
}
