package online

import (
	"fmt"
	"testing"
	"time"

	"snooze/internal/consolidation"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/types"
)

// fakeHost is a deterministic in-memory Host: a set of nodes with view
// statistics and VMs that actually move when Migrate succeeds. The kernel is
// single-threaded, so no locking is needed.
type fakeHost struct {
	rt    simkernel.Runtime
	nodes map[types.NodeID]NodeLoad
	vms   map[types.VMID]consolidation.LiveVM

	// loadOverride, when non-nil, answers NodeLoad instead of the node map —
	// the hook tests use to shift trends between snapshot and re-validation.
	loadOverride func(id types.NodeID) (NodeLoad, bool)
	// migrateOK decides each migration's outcome (nil = always ok).
	migrateOK func(m types.Migration) bool
	// migrateDelay postpones each done callback (0 = next runtime step).
	migrateDelay time.Duration

	migrations []types.Migration
	events     []fakeEvent
	marks      map[string]int64
}

type fakeEvent struct {
	typ    string
	entity string
	attrs  map[string]string
}

func newFakeHost(rt simkernel.Runtime, nodes, vmsPerNode int) *fakeHost {
	h := &fakeHost{
		rt:    rt,
		nodes: map[types.NodeID]NodeLoad{},
		vms:   map[types.VMID]consolidation.LiveVM{},
		marks: map[string]int64{},
	}
	capv := types.RV(8, 32768, 1000, 1000)
	for i := 0; i < nodes; i++ {
		id := types.NodeID(fmt.Sprintf("n%d", i))
		h.nodes[id] = NodeLoad{
			Spec:  types.NodeSpec{ID: id, Capacity: capv},
			P95:   0.2,
			Trend: 0,
			Fresh: true,
		}
		for j := 0; j < vmsPerNode; j++ {
			vmID := types.VMID(fmt.Sprintf("v%d-%d", i, j))
			h.vms[vmID] = consolidation.LiveVM{
				Spec:   types.VMSpec{ID: vmID, Requested: types.RV(2, 4096, 50, 50)},
				Node:   id,
				Demand: types.RV(1, 1024, 10, 10),
			}
		}
	}
	return h
}

func (h *fakeHost) ConsolidationSnapshot() (Snapshot, bool) {
	snap := Snapshot{Now: h.rt.Now()}
	for _, n := range h.nodes {
		snap.Nodes = append(snap.Nodes, n)
	}
	for _, vm := range h.vms {
		snap.VMs = append(snap.VMs, vm)
	}
	// Deterministic order (the GM host sorts the same way).
	for i := range snap.Nodes {
		for j := i + 1; j < len(snap.Nodes); j++ {
			if snap.Nodes[j].Spec.ID < snap.Nodes[i].Spec.ID {
				snap.Nodes[i], snap.Nodes[j] = snap.Nodes[j], snap.Nodes[i]
			}
		}
	}
	for i := range snap.VMs {
		for j := i + 1; j < len(snap.VMs); j++ {
			if snap.VMs[j].Spec.ID < snap.VMs[i].Spec.ID {
				snap.VMs[i], snap.VMs[j] = snap.VMs[j], snap.VMs[i]
			}
		}
	}
	return snap, true
}

func (h *fakeHost) NodeLoad(id types.NodeID) (NodeLoad, bool) {
	if h.loadOverride != nil {
		return h.loadOverride(id)
	}
	n, ok := h.nodes[id]
	return n, ok
}

func (h *fakeHost) Migrate(m types.Migration, done func(ok bool)) {
	h.migrations = append(h.migrations, m)
	ok := h.migrateOK == nil || h.migrateOK(m)
	h.rt.After(h.migrateDelay, func() {
		if ok {
			vm := h.vms[m.VM]
			vm.Node = m.To
			h.vms[m.VM] = vm
		}
		done(ok)
	})
}

func (h *fakeHost) Emit(typ, entity string, attrs map[string]string) {
	h.events = append(h.events, fakeEvent{typ: typ, entity: entity, attrs: attrs})
}

func (h *fakeHost) Mark(name string, delta int64) { h.marks[name] += delta }

func (h *fakeHost) hostsUsed() int {
	used := map[types.NodeID]bool{}
	for _, vm := range h.vms {
		used[vm.Node] = true
	}
	return len(used)
}

func (h *fakeHost) eventCount(typ, outcome string) int {
	n := 0
	for _, ev := range h.events {
		if ev.typ == typ && (outcome == "" || ev.attrs["outcome"] == outcome) {
			n++
		}
	}
	return n
}

func testConfig() Config {
	cfg := Config{Enabled: true, Period: 10 * time.Second, Colonies: 2}
	cfg.ACO.Seed = 42
	return cfg
}

func TestOnlineRoundConsolidates(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 4, 1) // 4 hosts, 1 small VM each — packs onto 1
	o := New(k, h, testConfig())
	o.Start()
	k.Run(11 * time.Second)

	st := o.Status()
	if st.Rounds != 1 || st.Migrations == 0 {
		t.Fatalf("status: %+v", st)
	}
	if h.hostsUsed() >= 4 {
		t.Fatalf("no consolidation: still %d hosts", h.hostsUsed())
	}
	lr := st.LastRound
	if lr == nil || lr.HostsBefore != 4 || lr.HostsAfter >= lr.HostsBefore {
		t.Fatalf("last round: %+v", lr)
	}
	if h.marks["gm.consolidation-rounds"] != 1 || h.marks["gm.consolidation-migrations"] != int64(st.Migrations) {
		t.Fatalf("marks: %+v", h.marks)
	}
	if h.eventCount(telemetry.EventConsolidationRound, "") != 1 {
		t.Fatalf("round events: %+v", h.events)
	}
	if n := h.eventCount(telemetry.EventConsolidationMigration, "executed"); n != int(st.Migrations) {
		t.Fatalf("migration events: %d != %d", n, st.Migrations)
	}
}

// TestOnlineBudgetAcrossRounds drives a plan that needs more migrations than
// one round's budget: each round executes exactly the budget and the next
// re-plans from wherever execution stopped, converging over multiple rounds.
func TestOnlineBudgetAcrossRounds(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 6, 1) // needs ~5 moves to reach 1 host
	cfg := testConfig()
	cfg.MigrationBudget = 2
	o := New(k, h, cfg)
	o.Start()

	k.Run(11 * time.Second) // round 1
	st := o.Status()
	if st.Rounds != 1 || st.Migrations > 2 {
		t.Fatalf("round 1: %+v", st)
	}
	if st.LastRound.Executed > 2 || st.LastRound.Planned > 2 {
		t.Fatalf("budget exceeded: %+v", st.LastRound)
	}
	afterRound1 := h.hostsUsed()
	if afterRound1 >= 6 {
		t.Fatalf("round 1 did not improve: %d hosts", afterRound1)
	}

	k.Run(21 * time.Second) // round 2
	st = o.Status()
	if st.Rounds != 2 {
		t.Fatalf("round 2: %+v", st)
	}
	if h.hostsUsed() >= afterRound1 {
		t.Fatalf("round 2 did not improve further: %d hosts", h.hostsUsed())
	}
	// Every round stayed within budget.
	if st.Migrations > 4 {
		t.Fatalf("total migrations %d exceed 2 rounds × budget 2", st.Migrations)
	}
}

// TestOnlineCancelOnReceiverHot trips the receiver-side gate between snapshot
// and execution: the plan is abandoned, the cancel is journalled and counted,
// and nothing migrates.
func TestOnlineCancelOnReceiverHot(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 3, 1)
	// Every re-validation sees a suddenly hot receiver.
	h.loadOverride = func(id types.NodeID) (NodeLoad, bool) {
		n, ok := h.nodes[id]
		n.P95 = 0.95
		n.Fresh = true
		return n, ok
	}
	o := New(k, h, testConfig())
	o.Start()
	k.Run(11 * time.Second)

	st := o.Status()
	if st.Cancels != 1 || st.Migrations != 0 {
		t.Fatalf("status: %+v", st)
	}
	if len(h.migrations) != 0 {
		t.Fatalf("migrations issued despite cancel: %+v", h.migrations)
	}
	if h.marks["gm.consolidation-cancels"] != 1 {
		t.Fatalf("marks: %+v", h.marks)
	}
	if h.eventCount(telemetry.EventConsolidationMigration, "cancelled") != 1 {
		t.Fatalf("cancel events: %+v", h.events)
	}
	if lr := st.LastRound; lr == nil || lr.Cancelled != 1 || lr.Executed != 0 {
		t.Fatalf("last round: %+v", st.LastRound)
	}
}

// TestOnlineCancelOnSourceDraining trips the source-side gate: a source whose
// fresh trend is falling steeply is already draining, so migrating off it is
// pointless churn.
func TestOnlineCancelOnSourceDraining(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 3, 1)
	h.loadOverride = func(id types.NodeID) (NodeLoad, bool) {
		n, ok := h.nodes[id]
		n.Trend = -0.01
		n.Fresh = true
		return n, ok
	}
	o := New(k, h, testConfig())
	o.Start()
	k.Run(11 * time.Second)

	st := o.Status()
	if st.Cancels != 1 || st.Migrations != 0 || len(h.migrations) != 0 {
		t.Fatalf("status: %+v migrations: %v", st, h.migrations)
	}
	for _, ev := range h.events {
		if ev.attrs["outcome"] == "cancelled" && ev.attrs["reason"] != "source-trend-falling" {
			t.Fatalf("reason: %+v", ev)
		}
	}
}

// TestOnlineStaleStatsNeverCancel: the same shifted statistics marked stale
// must not trip the gates.
func TestOnlineStaleStatsNeverCancel(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 3, 1)
	h.loadOverride = func(id types.NodeID) (NodeLoad, bool) {
		n, ok := h.nodes[id]
		n.P95 = 0.95
		n.Trend = -0.01
		n.Fresh = false
		return n, ok
	}
	o := New(k, h, testConfig())
	o.Start()
	k.Run(11 * time.Second)

	st := o.Status()
	if st.Cancels != 0 || st.Migrations == 0 {
		t.Fatalf("stale stats cancelled: %+v", st)
	}
}

// TestOnlineFailedMigrationRetriedNextRound: failures are counted, the round
// completes, and the next round re-plans the same moves from live state.
func TestOnlineFailedMigrationRetriedNextRound(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 3, 1)
	fail := true
	h.migrateOK = func(types.Migration) bool { return !fail }
	o := New(k, h, testConfig())
	o.Start()

	k.Run(11 * time.Second)
	st := o.Status()
	if st.Failures == 0 || st.Migrations != 0 || st.Rounds != 1 {
		t.Fatalf("round 1: %+v", st)
	}
	if h.hostsUsed() != 3 {
		t.Fatalf("failed migrations moved VMs: %d hosts", h.hostsUsed())
	}

	fail = false
	k.Run(21 * time.Second)
	st = o.Status()
	if st.Rounds != 2 || st.Migrations == 0 {
		t.Fatalf("round 2: %+v", st)
	}
	if h.hostsUsed() >= 3 {
		t.Fatalf("retry round did not consolidate: %d hosts", h.hostsUsed())
	}
}

// TestOnlineStopOrphansInFlightPlan: stopping mid-plan abandons it — the
// pending migration callback from the old generation is ignored and no
// further migrations are issued.
func TestOnlineStopOrphansInFlightPlan(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 4, 1)
	h.migrateDelay = 5 * time.Second // done callbacks land after Stop
	o := New(k, h, testConfig())
	o.Start()

	k.Run(11 * time.Second) // tick fires, first migration issued, done pending
	if len(h.migrations) != 1 {
		t.Fatalf("migrations before stop: %+v", h.migrations)
	}
	o.Stop()
	k.Run(60 * time.Second)

	st := o.Status()
	if st.Running || st.InRound {
		t.Fatalf("status after stop: %+v", st)
	}
	if st.Migrations != 0 || st.Rounds != 0 {
		t.Fatalf("orphaned callback still counted: %+v", st)
	}
	if len(h.migrations) != 1 {
		t.Fatalf("migrations issued after stop: %+v", h.migrations)
	}

	// Restart runs fresh rounds on a new ticker.
	h.migrateDelay = 0
	o.Start()
	k.Run(k.Now() + 30*time.Second)
	if st := o.Status(); !st.Running || st.Rounds == 0 {
		t.Fatalf("status after restart: %+v", st)
	}
}

// TestOnlineSkipsDegenerateInputs: too few nodes or no VMs never start a
// round.
func TestOnlineSkipsDegenerateInputs(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 1, 1) // below MinNodes
	o := New(k, h, testConfig())
	o.Start()
	k.Run(25 * time.Second)
	if st := o.Status(); st.Rounds != 0 {
		t.Fatalf("round ran on 1 node: %+v", st)
	}

	h2 := newFakeHost(k, 3, 0) // no VMs
	o2 := New(k, h2, testConfig())
	o2.Start()
	k.Run(k.Now() + 25*time.Second)
	if st := o2.Status(); st.Rounds != 0 {
		t.Fatalf("round ran with no VMs: %+v", st)
	}
}

// TestOnlineNoImprovementIsNoOpRound: an already packed group journals the
// round but plans nothing.
func TestOnlineNoImprovementIsNoOpRound(t *testing.T) {
	k := simkernel.New(1)
	h := newFakeHost(k, 2, 1)
	// Both VMs already on n0.
	vm := h.vms["v1-0"]
	vm.Node = "n0"
	h.vms["v1-0"] = vm
	o := New(k, h, testConfig())
	o.Start()
	k.Run(11 * time.Second)

	st := o.Status()
	if st.Rounds != 1 || st.Migrations != 0 {
		t.Fatalf("status: %+v", st)
	}
	if lr := st.LastRound; lr == nil || lr.Planned != 0 || lr.HostsAfter != lr.HostsBefore {
		t.Fatalf("last round: %+v", st.LastRound)
	}
	if len(h.migrations) != 0 {
		t.Fatalf("migrations: %+v", h.migrations)
	}
}
