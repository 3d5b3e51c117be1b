package cluster

import (
	"fmt"
	"testing"
	"time"

	"snooze/internal/consolidation/online"
	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// These tests exercise whole-system behaviours that combine several
// subsystems: periodic reconfiguration (the consolidation optimizer with an
// unlimited budget) driving live migrations, robustness
// to message loss, and the energy manager's wake paths.

func TestReconfigurationConsolidatesLiveCluster(t *testing.T) {
	top := workload.Grid5000Topology(8, 1)
	cfg := DefaultConfig(top, 21)
	// Spread placement, then let periodic ACO reconfiguration pack it. VMs
	// demand 50% of their reservation so a fully packed node sits at 50%
	// measured utilization — consolidation and overload protection must not
	// fight (packing to 100% measured WOULD re-trigger overload relocation,
	// by design).
	reg := workload.NewRegistry()
	reg.Register("half", workload.FlatTrace{Fraction: 0.5})
	cfg.Hypervisor.Traces = reg
	cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
	cfg.LC.Thresholds = scheduling.Thresholds{Overload: 0.95, Underload: 0} // isolate reconfig
	cfg.Manager.Consolidation = online.Config{Enabled: true, Period: 2 * time.Minute, MigrationBudget: -1}
	c := New(cfg)
	c.Settle(30 * time.Second)

	var vms []types.VMSpec
	for i := 0; i < 8; i++ {
		s := vmSpec(fmt.Sprintf("v%d", i), 2, 4096)
		s.TraceID = "half"
		vms = append(vms, s)
	}
	resp, err := c.SubmitAndWait(vms, 2*time.Minute)
	if err != nil || len(resp.Placed) != 8 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(10 * time.Second)
	occupiedBefore := occupiedNodes(c)
	if occupiedBefore < 6 {
		t.Fatalf("fixture: round-robin should spread, occupied=%d", occupiedBefore)
	}

	c.Settle(10 * time.Minute) // several reconfiguration rounds
	occupiedAfter := occupiedNodes(c)
	if occupiedAfter >= occupiedBefore {
		t.Fatalf("reconfiguration did not consolidate: %d -> %d nodes", occupiedBefore, occupiedAfter)
	}
	// 8 VMs × (2 CPU, 4096 MB) on 8-CPU/32-GB nodes: 2 nodes suffice.
	if occupiedAfter > 3 {
		t.Fatalf("weak consolidation: still %d nodes", occupiedAfter)
	}
	if c.Metrics.Count("gm.consolidation-migrations") == 0 {
		t.Fatal("no consolidation migrations recorded")
	}
	if n := c.Metrics.Count("gm.migrations-failed"); n != 0 {
		t.Fatalf("%d planned migrations were refused", n)
	}
	// No VM lost in the shuffle.
	if c.RunningVMs() != 8 {
		t.Fatalf("running VMs after reconfiguration: %d", c.RunningVMs())
	}
}

// TestConsolidationPlansAreAdmitted is E5's third variant as a regression
// test: VMs spread round-robin whose diurnal p95 usage stays below their
// reservation. The hypervisor admits a migration on reservations, so a plan
// packed by usage against full node capacity is refused at the destination
// (and retried) move after move; over a simulated day the optimizer must
// consolidate without a single refused migration.
func TestConsolidationPlansAreAdmitted(t *testing.T) {
	const vms, day = 16, time.Hour
	cfg := DefaultConfig(workload.Grid5000Topology(10, 1), 5000)
	reg := workload.NewRegistry()
	for i := 0; i < vms; i++ {
		reg.Register(fmt.Sprintf("t%d", i), workload.DiurnalTrace{
			Low: 0.05, High: 0.75, MemFraction: 0.5,
			Period: day, Phase: time.Duration(i) * day / (4 * vms),
		})
	}
	cfg.Hypervisor.Traces = reg
	cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
	cfg.LC.Thresholds = scheduling.Thresholds{Overload: 0.95, Underload: 0} // isolate consolidation
	cfg.Manager.EnergyEnabled = true
	cfg.Manager.IdleThreshold = 2 * time.Minute
	cfg.Manager.Consolidation = online.Config{Enabled: true, Period: day / 8, MigrationBudget: -1}
	c := New(cfg)
	c.Settle(30 * time.Second)

	batch := make([]types.VMSpec, vms)
	for i := range batch {
		batch[i] = vmSpec(fmt.Sprintf("v%d", i), 2, 4096)
		batch[i].TraceID = fmt.Sprintf("t%d", i)
	}
	if resp, err := c.SubmitAndWait(batch, time.Hour); err != nil || len(resp.Placed) != vms {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(day)

	if n := c.Metrics.Count("gm.migrations-failed"); n != 0 {
		t.Fatalf("%d planned migrations were refused by their destination", n)
	}
	if c.Metrics.Count("gm.consolidation-migrations") == 0 {
		t.Fatal("the optimizer consolidated nothing")
	}
	if c.RunningVMs() != vms {
		t.Fatalf("running VMs after a day of consolidation: %d", c.RunningVMs())
	}
}

func occupiedNodes(c *Cluster) int {
	n := 0
	for _, node := range c.Nodes {
		if len(node.Status().VMs) > 0 {
			n++
		}
	}
	return n
}

func TestHierarchySurvivesMessageLoss(t *testing.T) {
	c := smallCluster(t, 8, 2, 31)
	// 20% uniform message loss: heartbeats and monitors are periodic, so
	// the hierarchy must stay formed (no false failure cascades).
	c.Bus.SetDropProbability(0.2)
	c.Settle(2 * time.Minute)
	if c.Leader() == nil {
		t.Fatal("lost the leader under 20% message loss")
	}
	assigned := 0
	for _, lc := range c.LCs {
		if lc.GM() != "" {
			assigned++
		}
	}
	if assigned < 6 {
		t.Fatalf("only %d/8 LCs assigned under loss", assigned)
	}
	c.Bus.SetDropProbability(0)
	c.Settle(time.Minute)
	resp, err := c.SubmitAndWait([]types.VMSpec{vmSpec("after-loss", 1, 1024)}, 4*time.Minute)
	if err != nil || len(resp.Placed) != 1 {
		t.Fatalf("submit after loss healed: %+v %v", resp, err)
	}
}

func TestWakeOnOverload(t *testing.T) {
	top := workload.Grid5000Topology(3, 1)
	cfg := DefaultConfig(top, 33)
	reg := workload.NewRegistry()
	// Quiet at first, then permanently hot: overload begins mid-run.
	reg.Register("hot-later", workload.OnOffTrace{
		Busy: 0.2, OnFor: 4 * time.Minute, OffFor: time.Hour, IdleFraction: 1.0,
	})
	cfg.Hypervisor.Traces = reg
	cfg.Manager.EnergyEnabled = true
	cfg.Manager.IdleThreshold = 30 * time.Second
	th := scheduling.Thresholds{Overload: 0.8, Underload: 0}
	cfg.LC.Thresholds = th
	cfg.Manager.Overload = scheduling.OverloadRelocation{Thresholds: th}
	c := New(cfg)
	c.Settle(20 * time.Second)

	// Fill one node to its reservation limit; the other two stay idle and
	// get suspended.
	var vms []types.VMSpec
	for i := 0; i < 4; i++ {
		s := vmSpec(fmt.Sprintf("v%d", i), 2, 2048)
		s.TraceID = "hot-later"
		vms = append(vms, s)
	}
	resp, err := c.SubmitAndWait(vms, 2*time.Minute)
	if err != nil || len(resp.Placed) != 4 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(90 * time.Second) // idle nodes suspend during the quiet phase
	if got := c.PowerStates()[types.PowerSuspended]; got == 0 {
		t.Fatalf("fixture: no nodes suspended: %v", c.PowerStates())
	}
	// The hot phase (all 4 VMs at 100% of reservation = 8/8 CPU) overloads
	// the host; the GM has no active receiver, so it must wake one.
	c.Settle(10 * time.Minute)
	if c.Metrics.Count("gm.wakes") == 0 {
		t.Fatal("overload with sleeping capacity did not trigger a wake")
	}
}

func TestPendingPlacementExpires(t *testing.T) {
	top := workload.Grid5000Topology(2, 1)
	cfg := DefaultConfig(top, 34)
	cfg.Manager.EnergyEnabled = true
	cfg.Manager.IdleThreshold = 15 * time.Second
	cfg.Manager.PendingTimeout = 20 * time.Second
	c := New(cfg)
	c.Settle(90 * time.Second) // both nodes suspend

	// Fail the nodes while suspended: wakes will never complete, so the
	// queued placement must expire and be reported unplaced.
	for id := range c.Nodes {
		c.FailNode(id)
	}
	resp, err := c.SubmitAndWait([]types.VMSpec{vmSpec("doomed", 1, 1024)}, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Unplaced) != 1 {
		t.Fatalf("expected expiry → unplaced, got %+v", resp)
	}
}

func TestClusterMeterPeriodZeroDisables(t *testing.T) {
	top := workload.Grid5000Topology(2, 1)
	cfg := DefaultConfig(top, 35)
	cfg.MeterPeriod = 0
	c := New(cfg)
	c.Settle(time.Minute)
	// Energy is still computable on demand (TotalEnergyJoules samples).
	if c.TotalEnergyJoules() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestDeepTopologyExport(t *testing.T) {
	c := smallCluster(t, 6, 2, 61)
	resp, err := c.SubmitAndWait([]types.VMSpec{vmSpec("tv", 2, 2048)}, 2*time.Minute)
	if err != nil || len(resp.Placed) != 1 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(10 * time.Second)

	var topo protocol.TopologyResponse
	var terr error
	done := false
	c.Client.TopologyDeep(func(r protocol.TopologyResponse, err error) { topo, terr, done = r, err, true })
	deadline := c.Kernel.Now() + time.Minute
	for !done && c.Kernel.Now() < deadline {
		if !c.Kernel.Step() {
			break
		}
	}
	if !done || terr != nil {
		t.Fatalf("deep topology: done=%v err=%v", done, terr)
	}
	totalLCs, totalVMs := 0, 0
	for _, gm := range topo.GMs {
		totalLCs += len(gm.LCs)
		for _, lc := range gm.LCs {
			totalVMs += lc.VMs
			if lc.Capacity.Zero() {
				t.Fatalf("LC %s missing capacity", lc.ID)
			}
		}
	}
	if totalLCs != 6 {
		t.Fatalf("deep export LCs: %d", totalLCs)
	}
	if totalVMs != 1 {
		t.Fatalf("deep export VMs: %d", totalVMs)
	}
}

// TestVMLivenessSweepReapsSilentlyVanishedVM proves the deployment-level
// liveness sweep end to end: a VM killed directly on the hypervisor — behind
// the hierarchy's back, so no terminal vm.state event is ever emitted (the
// migration-race / crash-mid-handoff signature) — must be reaped: the GM
// journals a synthetic terminal vm.state "vanished" event and the VM's
// telemetry series are dropped, while its still-running sibling is left
// untouched.
func TestVMLivenessSweepReapsSilentlyVanishedVM(t *testing.T) {
	top := workload.Grid5000Topology(3, 1)
	cfg := DefaultConfig(top, 11)
	cfg.Manager.VMLivenessGrace = 30 * time.Second
	c := New(cfg)
	c.Settle(30 * time.Second)

	resp, err := c.SubmitAndWait([]types.VMSpec{
		vmSpec("victim", 1, 2048),
		vmSpec("survivor", 1, 2048),
	}, 2*time.Minute)
	if err != nil || len(resp.Placed) != 2 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	// Let monitoring build per-VM series for both.
	c.Settle(30 * time.Second)
	store := c.Telemetry.Store()
	if store.Len("vm/victim", "cpu.used") == 0 || store.Len("vm/survivor", "cpu.used") == 0 {
		t.Fatal("fixture: per-VM series not recorded")
	}

	// Kill the victim straight on its hypervisor: the LC's next monitor
	// report simply stops listing it — no vm.state event anywhere.
	sweepFloor := c.Telemetry.Journal().LastSeq()
	node := resp.Placed["victim"]
	if err := c.Nodes[node].StopVM("victim"); err != nil {
		t.Fatalf("silent stop: %v", err)
	}

	// One grace period plus monitoring slack: the inventory shrink arms the
	// sweep, staleness ripens, the sweep reaps.
	c.Settle(cfg.Manager.VMLivenessGrace + 15*time.Second)

	if n := store.Len("vm/victim", "cpu.used"); n != 0 {
		t.Fatalf("victim series survived the sweep: %d samples", n)
	}
	if store.Len("vm/survivor", "cpu.used") == 0 {
		t.Fatal("survivor series was reaped")
	}
	var vanished int
	for _, ev := range c.Telemetry.Journal().Replay(sweepFloor+1, 0) {
		if ev.Type == "vm.state" && ev.Entity == "vm/victim" {
			if ev.Attrs.Get("state") != "vanished" || ev.Attrs.Get("reason") != "liveness-sweep" {
				t.Fatalf("unexpected terminal event: %+v", ev)
			}
			vanished++
		}
		if ev.Type == "vm.state" && ev.Entity == "vm/survivor" && ev.Attrs.Get("state") == "vanished" {
			t.Fatalf("survivor falsely reaped: %+v", ev)
		}
	}
	if vanished != 1 {
		t.Fatalf("want exactly one synthetic vanished event, got %d", vanished)
	}
	if n := c.Metrics.Count("gm.vms-vanished"); n != 1 {
		t.Fatalf("gm.vms-vanished = %d", n)
	}
}
