package power

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"snooze/internal/types"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []Model{
		{IdleWatts: -1, BusyWatts: 10},
		{IdleWatts: 100, BusyWatts: 50},
		{IdleWatts: 100, BusyWatts: 200, SuspendWatts: 150},
		{IdleWatts: 100, BusyWatts: 200, SuspendLatency: -time.Second},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, m)
		}
	}
}

func TestDrawLinear(t *testing.T) {
	m := Model{IdleWatts: 100, BusyWatts: 200, SuspendWatts: 5, OffWatts: 2, TransitionWatts: 150}
	if got := m.Draw(types.PowerOn, 0); got != 100 {
		t.Fatalf("idle: got %v", got)
	}
	if got := m.Draw(types.PowerOn, 1); got != 200 {
		t.Fatalf("busy: got %v", got)
	}
	if got := m.Draw(types.PowerOn, 0.5); got != 150 {
		t.Fatalf("half: got %v", got)
	}
	// Clamping.
	if got := m.Draw(types.PowerOn, -1); got != 100 {
		t.Fatalf("clamp low: got %v", got)
	}
	if got := m.Draw(types.PowerOn, 7); got != 200 {
		t.Fatalf("clamp high: got %v", got)
	}
	if got := m.Draw(types.PowerSuspended, 0.9); got != 5 {
		t.Fatalf("suspended: got %v", got)
	}
	if got := m.Draw(types.PowerOff, 0); got != 2 {
		t.Fatalf("off: got %v", got)
	}
	if got := m.Draw(types.PowerFailed, 0); got != 2 {
		t.Fatalf("failed: got %v", got)
	}
	for _, st := range []types.PowerState{types.PowerSuspending, types.PowerWaking, types.PowerBooting} {
		if got := m.Draw(st, 0); got != 150 {
			t.Fatalf("%v: got %v", st, got)
		}
	}
}

func TestDrawMonotoneInUtilization(t *testing.T) {
	m := DefaultModel()
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return m.Draw(types.PowerOn, lo) <= m.Draw(types.PowerOn, hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnergy(t *testing.T) {
	m := Model{IdleWatts: 100, BusyWatts: 200}
	j := m.Energy(types.PowerOn, 0, time.Hour)
	if math.Abs(j-100*3600) > 1e-6 {
		t.Fatalf("Energy: got %v", j)
	}
}

func TestMeterIntegration(t *testing.T) {
	m := Model{IdleWatts: 100, BusyWatts: 200, SuspendWatts: 10}
	mt := NewMeter(m)
	mt.Observe(0, types.PowerOn, 0)              // idle from t=0
	mt.Observe(10*time.Second, types.PowerOn, 1) // 10s at 100W = 1000J
	if math.Abs(mt.Joules()-1000) > 1e-6 {
		t.Fatalf("after first interval: %v", mt.Joules())
	}
	mt.Observe(20*time.Second, types.PowerSuspended, 0) // 10s at 200W = 2000J
	if math.Abs(mt.Joules()-3000) > 1e-6 {
		t.Fatalf("after second interval: %v", mt.Joules())
	}
	mt.Observe(30*time.Second, types.PowerSuspended, 0) // 10s at 10W = 100J
	if math.Abs(mt.Joules()-3100) > 1e-6 {
		t.Fatalf("after third interval: %v", mt.Joules())
	}
	if math.Abs(mt.KWh()-3100/3.6e6) > 1e-12 {
		t.Fatalf("KWh: %v", mt.KWh())
	}
}

func TestMeterOutOfOrderIgnored(t *testing.T) {
	mt := NewMeter(DefaultModel())
	mt.Observe(10*time.Second, types.PowerOn, 0)
	mt.Observe(5*time.Second, types.PowerOn, 1) // out of order: ignored
	mt.Observe(20*time.Second, types.PowerOn, 0)
	want := DefaultModel().IdleWatts * 10
	if math.Abs(mt.Joules()-want) > 1e-6 {
		t.Fatalf("got %v want %v", mt.Joules(), want)
	}
}

func TestMeterSurcharge(t *testing.T) {
	mt := NewMeter(DefaultModel())
	mt.AddJoules(42)
	if mt.Joules() != 42 {
		t.Fatalf("surcharge: %v", mt.Joules())
	}
}

func TestClusterMeter(t *testing.T) {
	cm := NewClusterMeter(Model{IdleWatts: 100, BusyWatts: 200, SuspendWatts: 10})
	cm.Observe("n1", 0, types.PowerOn, 0)
	cm.Observe("n2", 0, types.PowerSuspended, 0)
	cm.Observe("n1", 10*time.Second, types.PowerOn, 0)
	cm.Observe("n2", 10*time.Second, types.PowerSuspended, 0)
	if got := cm.NodeJoules("n1"); math.Abs(got-1000) > 1e-6 {
		t.Fatalf("n1: %v", got)
	}
	if got := cm.NodeJoules("n2"); math.Abs(got-100) > 1e-6 {
		t.Fatalf("n2: %v", got)
	}
	if got := cm.TotalJoules(); math.Abs(got-1100) > 1e-6 {
		t.Fatalf("total: %v", got)
	}
	if cm.Nodes() != 2 {
		t.Fatalf("Nodes: %d", cm.Nodes())
	}
	if got := cm.NodeJoules("unknown"); got != 0 {
		t.Fatalf("unknown node: %v", got)
	}
	cm.AddJoules(50)
	if got := cm.TotalJoules(); math.Abs(got-1150) > 1e-6 {
		t.Fatalf("total after surcharge: %v", got)
	}
}

func TestPlacementPower(t *testing.T) {
	m := Model{IdleWatts: 100, BusyWatts: 200, SuspendWatts: 10}
	nodes := map[types.NodeID]types.NodeSpec{
		"n1": {ID: "n1", Capacity: types.RV(4, 8192, 0, 0)},
		"n2": {ID: "n2", Capacity: types.RV(4, 8192, 0, 0)},
	}
	demand := map[types.VMID]types.ResourceVector{
		"v1": types.RV(2, 1024, 0, 0),
		"v2": types.RV(2, 1024, 0, 0),
	}
	// Both VMs on n1: n1 at 100% (200W), n2 suspended (10W).
	p := types.Placement{"v1": "n1", "v2": "n1"}
	if got := PlacementPower(m, p, demand, nodes); math.Abs(got-210) > 1e-6 {
		t.Fatalf("consolidated: %v", got)
	}
	// Spread: both at 50% (150W each).
	p = types.Placement{"v1": "n1", "v2": "n2"}
	if got := PlacementPower(m, p, demand, nodes); math.Abs(got-300) > 1e-6 {
		t.Fatalf("spread: %v", got)
	}
	// Consolidation should never draw more than spreading for identical demand.
	if PlacementPower(m, types.Placement{"v1": "n1", "v2": "n1"}, demand, nodes) >
		PlacementPower(m, types.Placement{"v1": "n1", "v2": "n2"}, demand, nodes) {
		t.Fatal("consolidated draw exceeds spread draw")
	}
	// VM with no demand entry ignored; zero-capacity node contributes idle draw.
	nodes["n3"] = types.NodeSpec{ID: "n3"}
	p = types.Placement{"v1": "n1", "vX": "n3"}
	got := PlacementPower(m, p, demand, nodes)
	// n1 at 50% = 150, n2 suspended = 10, n3 active but 0 util = 100.
	if math.Abs(got-260) > 1e-6 {
		t.Fatalf("partial: %v", got)
	}
}

// PlacementPower must not depend on map iteration order: summing floats in a
// different order changes the last bits, which made experiment tables print
// -0.00 on some runs and 0.00 on others.
func TestPlacementPowerDeterministic(t *testing.T) {
	m := DefaultModel()
	nodes := make(map[types.NodeID]types.NodeSpec)
	demand := make(map[types.VMID]types.ResourceVector)
	placement := make(types.Placement)
	var ids []types.VMID
	for n := 0; n < 64; n++ {
		node := types.NodeID(fmt.Sprintf("n%02d", n))
		nodes[node] = types.NodeSpec{ID: node, Capacity: types.RV(97.3, 32768, 0, 0)}
		for v := 0; v < 8; v++ {
			vm := types.VMID(fmt.Sprintf("%s-v%d", node, v))
			demand[vm] = types.RV(0.1+float64(v)/3+float64(n)/7, 1024, 0, 0)
			placement[vm] = node
			ids = append(ids, vm)
		}
	}
	want := PlacementPower(m, placement, demand, nodes)
	for i := 0; i < 200; i++ {
		if got := PlacementPower(m, placement, demand, nodes); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: %v, first call %v", i, got, want)
		}
	}
	// The same per-node VM sets, inserted in reverse order.
	reversed := make(types.Placement, len(placement))
	for i := len(ids) - 1; i >= 0; i-- {
		reversed[ids[i]] = placement[ids[i]]
	}
	if got := PlacementPower(m, reversed, demand, nodes); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("reordered placement: %v, want %v", got, want)
	}
}
