package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"snooze/internal/consolidation/online"
	"snooze/internal/protocol"
	"snooze/internal/scheduling"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
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
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: 0.95, Underload: 0, Repeat: 15 * time.Second} // isolate reconfig
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
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: 0.95, Underload: 0, Repeat: 15 * time.Second} // isolate consolidation
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

// TestMigratedVMStaysListed follows live migrations in small steps of
// virtual time, from before the first to after the last: at every step GetVM
// finds each VM, and no VM's cpu.used series loses a sample. A migrated VM
// must neither drop out of the GM's inventory nor have its series reclaimed
// between the source's report that omits it and the destination's first
// report that lists it. Small VMs keep each transfer shorter than a monitor
// period, so the destination seldom reports the VM before it has arrived,
// and per-LC link delays stagger the LCs' reports, so that the source's and
// the destination's reports reach the GM at different instants.
func TestMigratedVMStaysListed(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(8, 1), 21)
	reg := workload.NewRegistry()
	reg.Register("half", workload.FlatTrace{Fraction: 0.5})
	cfg.Hypervisor.Traces = reg
	cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: 0.95, Underload: 0, Repeat: 15 * time.Second}
	cfg.Manager.Consolidation = online.Config{Enabled: true, Period: time.Minute, MigrationBudget: -1}
	c := New(cfg)
	var lcs []types.NodeID
	for id := range c.LCs {
		lcs = append(lcs, id)
	}
	slices.Sort(lcs)
	for i, id := range lcs {
		c.Bus.SetLinkDelay(c.LCs[id].Addr(), time.Duration(i%4)*700*time.Millisecond)
	}
	c.Settle(30 * time.Second)

	var vms []types.VMSpec
	for i := 0; i < 8; i++ {
		s := vmSpec(fmt.Sprintf("m%d", i), 2, 512)
		s.TraceID = "half"
		vms = append(vms, s)
	}
	if resp, err := c.SubmitAndWait(vms, 2*time.Minute); err != nil || len(resp.Placed) != len(vms) {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(10 * time.Second)

	api, store := c.API(0), c.Telemetry.Store()
	samples := map[types.VMID]int{}
	for end := c.Kernel.Now() + 3*time.Minute; c.Kernel.Now() < end; {
		c.Settle(250 * time.Millisecond)
		for _, spec := range vms {
			if _, err := api.GetVM(context.Background(), string(spec.ID)); err != nil {
				t.Fatalf("at %v (%d migrations done): GetVM %s: %v", c.Kernel.Now(),
					c.Metrics.Count("gm.migrations-ok"), spec.ID, err)
			}
			n := store.Len(telemetry.VMEntity(spec.ID), "cpu.used")
			if n < samples[spec.ID] {
				t.Fatalf("at %v: %s cpu.used went %d -> %d samples", c.Kernel.Now(), spec.ID, samples[spec.ID], n)
			}
			samples[spec.ID] = n
		}
	}
	if n := c.Metrics.Count("gm.migrations-ok"); n == 0 {
		t.Fatal("fixture: no migration completed")
	}
	if n := c.Metrics.Count("gm.vms-left"); n != 0 {
		t.Fatalf("%d migrated VMs had their series reclaimed", n)
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
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: th.Overload, Underload: th.Underload, Repeat: 15 * time.Second}
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

// TestDeepTopologyExport: the GL's deep export describes each LC as the
// owning GM's gm.inventory node record does — power, VM count, reservation
// and capacity — including the LCs energy management has suspended.
func TestDeepTopologyExport(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(6, 2), 61)
	cfg.Manager.EnergyEnabled = true
	cfg.Manager.IdleThreshold = 20 * time.Second
	c := New(cfg)
	c.Settle(30 * time.Second)
	resp, err := c.SubmitAndWait([]types.VMSpec{vmSpec("tv", 2, 2048)}, 2*time.Minute)
	if err != nil || len(resp.Placed) != 1 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(2 * time.Minute) // the idle LCs suspend
	if c.PowerStates()[types.PowerSuspended] == 0 {
		t.Fatalf("fixture: no LC suspended: %v", c.PowerStates())
	}

	ctx := context.Background()
	topo, err := c.Backend.WithCallTimeout(time.Minute).Hierarchy(ctx, true)
	if err != nil {
		t.Fatalf("deep topology: %v", err)
	}
	totalLCs, totalVMs, suspended := 0, 0, 0
	for _, gm := range topo.GMs {
		var inv protocol.InventoryResponse
		var ierr error
		done := false
		_ = c.drive(ctx, func() {
			c.Bus.Call("test", transport.Address(gm.Addr), protocol.KindInventory, protocol.InventoryRequest{}, time.Minute,
				func(reply any, err error) {
					inv, _ = reply.(protocol.InventoryResponse)
					ierr, done = err, true
				})
		}, func() bool { return done })
		if ierr != nil || len(gm.LCs) != len(inv.Nodes) {
			t.Fatalf("GM %s: %d LCs exported, inventory lists %d nodes (%v)", gm.GM, len(gm.LCs), len(inv.Nodes), ierr)
		}
		for i, lc := range gm.LCs {
			st := inv.Nodes[i].Status
			want := protocol.TopologyLC{
				ID: st.Spec.ID, Power: st.Power.String(), VMs: len(st.VMs), Reserved: st.Reserved, Capacity: st.Spec.Capacity,
			}
			if !reflect.DeepEqual(lc, want) {
				t.Fatalf("GM %s exports %+v, its inventory says %+v", gm.GM, lc, want)
			}
			if lc.Capacity.Zero() {
				t.Fatalf("LC %s missing capacity", lc.ID)
			}
			if lc.Power == types.PowerSuspended.String() {
				suspended++
			}
			totalVMs += lc.VMs
		}
		totalLCs += len(gm.LCs)
	}
	if totalLCs != 6 || totalVMs != 1 || suspended == 0 {
		t.Fatalf("deep export: %d LCs, %d VMs, %d suspended", totalLCs, totalVMs, suspended)
	}
}

// TestReportReclaimsSilentlyStoppedVM proves that a VM's telemetry ends with
// the VM: a VM killed directly on the hypervisor, behind the hierarchy's back
// so that no terminal vm.state event is ever emitted, drops out of its LC's
// next monitor report, and the GM ends its series right there. Within two
// monitor periods, long before the liveness sweep's grace runs out, it
// journals one synthetic vm.state "vanished" event with reason "left-report"
// and the series are gone, while the still-running sibling is untouched.
func TestReportReclaimsSilentlyStoppedVM(t *testing.T) {
	top := workload.Grid5000Topology(3, 1)
	cfg := DefaultConfig(top, 11)
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
	survivorBefore := store.Len("vm/survivor", "cpu.used")
	if store.Len("vm/victim", "cpu.used") == 0 || survivorBefore == 0 {
		t.Fatal("fixture: per-VM series not recorded")
	}

	// Kill the victim straight on its hypervisor: the LC's next monitor
	// report simply stops listing it — no vm.state event anywhere.
	floor := c.Telemetry.Journal().LastSeq()
	node := resp.Placed["victim"]
	if err := c.Nodes[node].StopVM("victim"); err != nil {
		t.Fatalf("silent stop: %v", err)
	}
	c.Settle(2 * cfg.LC.MonitorPeriod)

	if n := store.Len("vm/victim", "cpu.used"); n != 0 {
		t.Fatalf("victim series outlived the report that omitted it: %d samples", n)
	}
	if n := store.Len("vm/survivor", "cpu.used"); n <= survivorBefore {
		t.Fatalf("survivor series stopped growing: %d -> %d samples", survivorBefore, n)
	}
	var vanished int
	for _, ev := range c.Telemetry.Journal().Replay(floor+1, 0) {
		if ev.Type == "vm.state" && ev.Entity == "vm/victim" {
			if ev.Attrs.Get("state") != "vanished" || ev.Attrs.Get("reason") != "left-report" {
				t.Fatalf("unexpected terminal event: %+v", ev)
			}
			vanished++
		}
		if ev.Type == "vm.state" && ev.Entity == "vm/survivor" && ev.Attrs.Get("state") == "vanished" {
			t.Fatalf("survivor falsely reclaimed: %+v", ev)
		}
	}
	if vanished != 1 {
		t.Fatalf("want exactly one synthetic vanished event, got %d", vanished)
	}
	if n := c.Metrics.Count("gm.vms-left"); n != 1 {
		t.Fatalf("gm.vms-left = %d", n)
	}
	if n := c.Metrics.Count("gm.vms-vanished"); n != 0 {
		t.Fatalf("the liveness sweep reaped %d VMs; the report should have", n)
	}
}

// TestSeriesFollowLiveVMs pins the store's VM series to the live VM set
// under churn: VMs are submitted and stopped silently on their hypervisors,
// and after every monitor period the store holds series of at most the VMs
// alive on the hypervisors plus those stopped in the last two periods. Once
// every VM is stopped, no VM series is left within two periods.
func TestSeriesFollowLiveVMs(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(8, 2), 29)
	period := cfg.LC.MonitorPeriod
	c := New(cfg)
	c.Settle(30 * time.Second)
	rng := rand.New(rand.NewSource(29))
	store := c.Telemetry.Store()

	var live []types.VMID
	var stops []time.Duration
	stop := func(id types.VMID) {
		// Relocation may have migrated the VM since its placement.
		for _, node := range c.Nodes {
			if node.HasVM(id) {
				if err := node.StopVM(id); err != nil {
					t.Fatalf("silent stop %s: %v", id, err)
				}
			}
		}
		stops = append(stops, c.Kernel.Now())
	}
	check := func(when string) {
		t.Helper()
		hosted, recent := 0, 0
		for _, node := range c.Nodes {
			hosted += len(node.VMs())
		}
		for _, at := range stops {
			if at >= c.Kernel.Now()-2*period {
				recent++
			}
		}
		if got := len(store.EntityNewest(telemetry.EntityVMPrefix)); got > hosted+recent {
			t.Fatalf("%s: %d VM entities in the store, want <= %d hosted + %d stopped in the last two periods",
				when, got, hosted, recent)
		}
	}

	next := 0
	for round := 0; round < 30; round++ {
		batch := make([]types.VMSpec, 1+rng.Intn(4))
		for i := range batch {
			batch[i] = vmSpec(fmt.Sprintf("c%03d", next), 1, 1024)
			next++
		}
		resp, err := c.SubmitAndWait(batch, 2*time.Minute)
		if err != nil {
			t.Fatalf("round %d submit: %v", round, err)
		}
		for _, spec := range batch {
			if _, ok := resp.Placed[spec.ID]; ok {
				live = append(live, spec.ID)
			}
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		n := min(len(live), rng.Intn(4))
		for _, id := range live[:n] {
			stop(id)
		}
		live = live[n:]
		c.Settle(period)
		check(fmt.Sprintf("round %d", round))
	}
	if c.Metrics.Count("gm.vms-left") == 0 {
		t.Fatal("churn reclaimed no series through the report path")
	}
	for _, id := range live {
		stop(id)
	}
	c.Settle(2 * period)
	if n := len(store.EntityNewest(telemetry.EntityVMPrefix)); n != 0 {
		t.Fatalf("%d VM entities left two periods after the last VM stopped", n)
	}
}
