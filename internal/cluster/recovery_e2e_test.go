package cluster

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"snooze/internal/hierarchy"
	"snooze/internal/protocol"
	"snooze/internal/scheduling/view"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// TestGMCrashRecoversTelemetryState is the warm-failover acceptance test: a
// GM killed mid-workload must be survivable without a cold capacity view.
// The managers of a deployment share one telemetry hub, so the successor
// that adopts the orphaned LCs prices them from the victim's pre-crash
// history, still-Fresh statistics, instead of falling back to bare snapshots
// for the next five monitoring periods.
func TestGMCrashRecoversTelemetryState(t *testing.T) {
	top := workload.Grid5000Topology(12, 3)
	c := New(DefaultConfig(top, 77))
	c.Settle(30 * time.Second)

	var vms []types.VMSpec
	for i := 0; i < 12; i++ {
		vms = append(vms, vmSpec(fmt.Sprintf("r%d", i), 1, 2048))
	}
	resp, err := c.SubmitAndWait(vms, 2*time.Minute)
	if err != nil || len(resp.Placed) != 12 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	// Accumulate enough monitoring history for Fresh statistics (monitor
	// period 3s, MinSamples 5).
	c.Settle(20 * time.Second)

	gms := c.GroupManagers()
	sort.Slice(gms, func(i, j int) bool { return gms[i].ID() < gms[j].ID() })
	if len(gms) < 2 {
		t.Fatalf("need >=2 GMs, have %d", len(gms))
	}
	victim := gms[0]
	var orphans []types.NodeID
	for id, lc := range c.LCs {
		if lc.GM() == victim.Addr() {
			orphans = append(orphans, id)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	if len(orphans) == 0 {
		t.Fatal("victim GM manages no LCs")
	}

	crashAt := c.Kernel.Now()
	victim.Crash()
	// GL sweep declares the GM dead after GMTimeout (12s); LCs detect the
	// dead GM and rejoin on a similar clock. Keep the window short enough
	// that fewer than MinSamples post-adoption reports exist, so only the
	// pre-crash history can make the successor's view Fresh.
	c.Settle(16 * time.Second)

	// The orphaned LCs must have rejoined a live GM, and that GM's hub must
	// hold the victim's pre-crash samples.
	survivors := map[string]*hierarchy.Manager{}
	for _, m := range c.GroupManagers() {
		if m != victim {
			survivors[string(m.Addr())] = m
		}
	}
	recovered := false
	for _, id := range orphans {
		lc := c.LCs[id]
		adopter, ok := survivors[string(lc.GM())]
		if !ok {
			t.Fatalf("orphan %s not re-assigned to a survivor (gm=%s)", id, lc.GM())
		}
		entity := telemetry.NodeEntity(id)
		preCrash := 0
		adopter.Telemetry().Store().Window(entity, "util", 0, crashAt, func(seg []telemetry.Sample) {
			preCrash += len(seg)
		})
		if preCrash == 0 {
			continue
		}
		b := view.Builder{Hub: adopter.Telemetry()}
		st := b.Stats(c.Kernel.Now(), entity)
		if !st.Fresh {
			t.Fatalf("orphan %s: adopted stats not fresh: %+v", id, st)
		}
		recovered = true
	}
	if !recovered {
		t.Fatal("no orphan's pre-crash history survived the handoff")
	}

	// Failover must not lose workload.
	c.Settle(30 * time.Second)
	if got := c.RunningVMs(); got != 12 {
		t.Fatalf("running VMs after GM failover: %d", got)
	}
}

// TestUnfedSeriesReapedAfterGMCrash pins the reap behind a dead GM: a VM that
// disappears between its GM's crash and its LC's rejoin is listed by no
// survivor's report, and the dead GM feeds nothing again. When the GL
// declares the GM failed it releases the GM's owner stamps and reaps the
// series of the VMs they covered that no survivor reports again — while the
// series of every VM still running survive the failover.
func TestUnfedSeriesReapedAfterGMCrash(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(12, 3), 77)
	c, vms, resp, gms := settledWorkload(t, cfg)
	victim := gms[0]
	var gone types.VMID
	for _, spec := range vms {
		if node := resp.Placed[spec.ID]; c.LCs[node].GM() == victim.Addr() {
			gone = spec.ID
			break
		}
	}
	if gone == "" {
		t.Fatal("victim GM hosts no VM")
	}
	if owner, ok := c.Telemetry.Owner(telemetry.VMEntity(gone)); !ok || owner != string(victim.ID()) {
		t.Fatalf("fixture: %s owned by %q, %v; want %s", gone, owner, ok, victim.ID())
	}

	// Crash the GM, then stop one of its VMs on the hypervisor before the
	// LC notices and rejoins a survivor: no report ever lists it again and
	// no vm.state event is emitted.
	victim.Crash()
	if err := c.Nodes[resp.Placed[gone]].StopVM(gone); err != nil {
		t.Fatalf("silent stop: %v", err)
	}
	grace := 4 * cfg.Manager.LCTimeout // how long an unfed series is kept
	c.Settle(cfg.Manager.GMTimeout + grace + 20*time.Second)

	store := c.Telemetry.Store()
	if n := store.Len(telemetry.VMEntity(gone), "cpu.used"); n != 0 {
		t.Fatalf("%s series survived its dead GM: %d samples", gone, n)
	}
	if n := c.Metrics.Count("gm.vms-vanished"); n < 1 {
		t.Fatalf("gm.vms-vanished = %d, want >= 1", n)
	}
	for _, spec := range vms {
		if spec.ID != gone && store.Len(telemetry.VMEntity(spec.ID), "cpu.used") == 0 {
			t.Fatalf("running VM %s lost its series", spec.ID)
		}
	}
}

// reapedSince reports whether entity's series hold no sample from before at:
// they were dropped since, even if a report has fed them again.
func reapedSince(store *telemetry.Store, entity string, at time.Duration) bool {
	return store.Window(entity, "cpu.used", 0, at, func([]telemetry.Sample) {}) == 0
}

// settledWorkload builds a 12-LC, 3-GM cluster with 12 VMs placed and their
// series recorded, and returns the GMs in ID order.
func settledWorkload(t *testing.T, cfg Config) (*Cluster, []types.VMSpec, protocol.SubmitResponse, []*hierarchy.Manager) {
	t.Helper()
	c := New(cfg)
	c.Settle(30 * time.Second)
	var vms []types.VMSpec
	for i := 0; i < 12; i++ {
		vms = append(vms, vmSpec(fmt.Sprintf("w%02d", i), 1, 2048))
	}
	resp, err := c.SubmitAndWait(vms, 2*time.Minute)
	if err != nil || len(resp.Placed) != 12 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(20 * time.Second)
	gms := c.GroupManagers()
	sort.Slice(gms, func(i, j int) bool { return gms[i].ID() < gms[j].ID() })
	if len(gms) < 2 {
		t.Fatalf("need >=2 GMs, have %d", len(gms))
	}
	return c, vms, resp, gms
}

// TestUnfedSeriesReapedAfterShedHandoff covers VMs stopped on their
// hypervisors while their LCs move to another GM: a manager joins a one-GM
// deployment, the GL rebalances, and the GM sheds half its LCs, which rejoin
// the newcomer. One VM per LC stops at the instant of the rebalance. The GM
// that shed an LC no longer gets its reports, and the join that hands the LC
// on does not list the stopped VM, so no report ends its series; they are
// reaped within 4 × LCTimeout. The series of the VMs still running survive.
func TestUnfedSeriesReapedAfterShedHandoff(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(8, 1), 77)
	c := New(cfg)
	c.Settle(30 * time.Second)
	// Two VMs per LC: 6 of each LC's 8 cores.
	var vms []types.VMSpec
	for i := 0; i < 16; i++ {
		vms = append(vms, vmSpec(fmt.Sprintf("h%02d", i), 3, 2048))
	}
	resp, err := c.SubmitAndWait(vms, 2*time.Minute)
	if err != nil || len(resp.Placed) != len(vms) {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(20 * time.Second)

	before := c.Kernel.Now()
	newcomer, err := c.addManager("gm-new")
	if err != nil {
		t.Fatal(err)
	}
	// Stop the first VM of each LC within a millisecond of the rebalance.
	for i := 0; i < 60000 && c.Metrics.Count("gl.rebalances") == 0; i++ {
		c.Settle(time.Millisecond)
	}
	if c.Metrics.Count("gl.rebalances") == 0 {
		t.Fatal("fixture: the GL never rebalanced")
	}
	stopped := map[types.VMID]types.NodeID{} // the first VM of each LC, by ID
	done := map[types.NodeID]bool{}
	for _, spec := range vms {
		for id, node := range c.Nodes {
			if node.HasVM(spec.ID) && !done[id] {
				if err := node.StopVM(spec.ID); err != nil {
					t.Errorf("silent stop: %v", err)
				}
				stopped[spec.ID], done[id] = id, true
			}
		}
	}
	c.Settle(before + 20*time.Second + 4*cfg.Manager.LCTimeout - c.Kernel.Now())

	handed := 0 // stopped VMs whose LC moved to the newcomer
	for _, node := range stopped {
		if c.LCs[node].GM() == newcomer.Addr() {
			handed++
		}
	}
	if handed == 0 || c.Metrics.Count("gm.lcs-shed") == 0 {
		t.Fatalf("fixture: %d LCs shed, %d of %d stopped VMs on an LC that moved to the newcomer",
			c.Metrics.Count("gm.lcs-shed"), handed, len(stopped))
	}
	store := c.Telemetry.Store()
	for _, spec := range vms {
		n := store.Len(telemetry.VMEntity(spec.ID), "cpu.used")
		if _, ok := stopped[spec.ID]; ok && n != 0 {
			t.Fatalf("stopped VM %s kept its series: %d samples", spec.ID, n)
		} else if !ok && reapedSince(store, telemetry.VMEntity(spec.ID), before) {
			t.Fatalf("running VM %s lost its series", spec.ID)
		}
	}
	if n := c.Metrics.Count("gm.vms-vanished"); n == 0 {
		t.Fatal("no stopped VM's series was reaped")
	}
}

// TestRebalanceShedsOnce: a manager joins a one-GM deployment of 8 LCs and
// the GL rebalances once. The donor's summary pushed before it shed, and the
// newcomer's pushed before its LCs joined, must not make the GL see the
// imbalance again while the shed LCs are between GMs.
func TestRebalanceShedsOnce(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(8, 1), 77)
	c := New(cfg)
	c.Settle(30 * time.Second)
	journal := c.Telemetry.Journal()
	sub := journal.Subscribe(journal.LastSeq()+1, 1<<16)
	defer sub.Close()
	newcomer, err := c.addManager("gm-new")
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(20*time.Second + 4*cfg.Manager.LCTimeout)
	var sheds []string
	for drained := false; !drained; {
		select {
		case ev := <-sub.Events():
			if ev.Type == telemetry.EventRebalance {
				sheds = append(sheds, ev.Attrs.Get("shed"))
			}
		default:
			drained = true
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("journal subscription: %v", err)
	}
	if len(sheds) != 1 || sheds[0] != "4" {
		t.Fatalf("rebalances: shed=%v, want one of 4", sheds)
	}
	moved := 0
	for _, lc := range c.LCs {
		if lc.GM() == newcomer.Addr() {
			moved++
		}
	}
	if moved != 4 {
		t.Fatalf("LCs end %d (donor) / %d (newcomer), want 4 / 4", len(c.LCs)-moved, moved)
	}
}

// TestUnfedSeriesReapedAfterGMAndLCCrash covers a double failure: a GM and
// one of its LCs crash together. The LC joins no survivor, so no GM ever
// declares it failed; the series of its VMs are reaped once the GL has
// declared the GM failed, while the VMs on the GM's other LCs, which rejoin
// a survivor, keep theirs.
func TestUnfedSeriesReapedAfterGMAndLCCrash(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(12, 3), 77)
	c, vms, resp, gms := settledWorkload(t, cfg)
	victim := gms[0]
	var deadLC types.NodeID
	for _, spec := range vms {
		if node := resp.Placed[spec.ID]; c.LCs[node].GM() == victim.Addr() {
			deadLC = node
			break
		}
	}
	if deadLC == "" {
		t.Fatal("victim GM hosts no VM")
	}

	crashAt := c.Kernel.Now()
	victim.Crash()
	c.FailNode(deadLC)
	c.Settle(cfg.Manager.GMTimeout + 4*cfg.Manager.LCTimeout + 20*time.Second)

	store := c.Telemetry.Store()
	dead := 0
	for _, spec := range vms {
		n := store.Len(telemetry.VMEntity(spec.ID), "cpu.used")
		switch {
		case resp.Placed[spec.ID] == deadLC:
			dead++
			if n != 0 {
				t.Fatalf("%s died with LC %s, but its series survived: %d samples", spec.ID, deadLC, n)
			}
		case reapedSince(store, telemetry.VMEntity(spec.ID), crashAt):
			t.Fatalf("running VM %s lost its series", spec.ID)
		}
	}
	if n := c.Metrics.Count("gm.vms-vanished"); n < int64(dead) {
		t.Fatalf("gm.vms-vanished = %d, want >= %d", n, dead)
	}
}

// TestUnfedSeriesReapedAfterReschedule covers RescheduleOnLCFailure without
// enough spare capacity: a full LC fails, its GM re-places what fits on the
// survivors, and the series of the VMs that could not be placed again are
// reaped while those of the re-placed VMs live on.
func TestUnfedSeriesReapedAfterReschedule(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(3, 1), 13)
	cfg.Manager.RescheduleOnLCFailure = true
	c := New(cfg)
	c.Settle(30 * time.Second)
	// 20 of the 24 cores: a failed full LC's 8 cores do not fit in the 4
	// left free.
	var vms []types.VMSpec
	for i := 0; i < 10; i++ {
		vms = append(vms, vmSpec(fmt.Sprintf("f%02d", i), 2, 2048))
	}
	resp, err := c.SubmitAndWait(vms, 2*time.Minute)
	if err != nil || len(resp.Placed) != len(vms) {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(20 * time.Second)
	perNode := map[types.NodeID]int{}
	for _, node := range resp.Placed {
		perNode[node]++
	}
	var victim types.NodeID
	for node, n := range perNode {
		if n == 4 && (victim == "" || node < victim) {
			victim = node
		}
	}
	if victim == "" {
		t.Fatalf("fixture: no full LC in %v", perNode)
	}

	failAt := c.Kernel.Now()
	c.FailNode(victim)
	c.Settle(cfg.Manager.LCTimeout + 4*cfg.Manager.LCTimeout + 20*time.Second)
	if c.Metrics.Count("gm.vm-reschedules") == 0 {
		t.Fatal("the failed LC's VMs were not rescheduled")
	}

	store := c.Telemetry.Store()
	replaced, lost := 0, 0
	for _, spec := range vms {
		if resp.Placed[spec.ID] != victim {
			continue
		}
		running := false
		for id, node := range c.Nodes {
			running = running || id != victim && node.HasVM(spec.ID)
		}
		n := store.Len(telemetry.VMEntity(spec.ID), "cpu.used")
		switch {
		case running && reapedSince(store, telemetry.VMEntity(spec.ID), failAt):
			t.Fatalf("re-placed VM %s lost its series", spec.ID)
		case !running && n != 0:
			t.Fatalf("VM %s was not placed again, but its series survived: %d samples", spec.ID, n)
		case running:
			replaced++
		default:
			lost++
		}
	}
	if replaced == 0 || lost == 0 {
		t.Fatalf("fixture: %d VMs re-placed, %d lost; want some of each", replaced, lost)
	}
}

// TestUnfedSeriesReapedAfterPromotion covers a GM promoted to GL: its LCs
// rejoin the remaining GMs, and a VM stopped at the instant of the promotion
// is listed by no join or report. The promoted manager no longer feeds the
// series of the VMs it had running, so it reaps those no other GM reports
// again, and the VMs that run on keep their series.
func TestUnfedSeriesReapedAfterPromotion(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(12, 3), 77)
	c, vms, _, _ := settledWorkload(t, cfg)
	crashAt := c.Kernel.Now()
	if c.CrashLeader() == nil {
		t.Fatal("no leader to crash")
	}
	// Stop one VM of the promoted manager's group at the event that promotes
	// it, before any of its LCs can rejoin another GM.
	for c.Leader() == nil && c.Kernel.Step() {
	}
	leader := c.Leader()
	if leader == nil {
		t.Fatal("fixture: no manager was promoted")
	}
	var gone types.VMID
	for _, spec := range vms {
		for id, node := range c.Nodes {
			if gone == "" && node.HasVM(spec.ID) && c.LCs[id].GM() == leader.Addr() {
				if err := node.StopVM(spec.ID); err != nil {
					t.Errorf("silent stop: %v", err)
				}
				gone = spec.ID
			}
		}
	}
	c.Settle(crashAt + 30*time.Second + 4*cfg.Manager.LCTimeout - c.Kernel.Now())
	if gone == "" {
		t.Fatal("fixture: the promoted manager hosted no VM")
	}

	store := c.Telemetry.Store()
	for _, spec := range vms {
		n := store.Len(telemetry.VMEntity(spec.ID), "cpu.used")
		if spec.ID == gone && n != 0 {
			t.Fatalf("stopped VM %s kept its series: %d samples", spec.ID, n)
		} else if spec.ID != gone && reapedSince(store, telemetry.VMEntity(spec.ID), crashAt) {
			t.Fatalf("running VM %s lost its series", spec.ID)
		}
	}
	if n := c.Metrics.Count("gm.vms-vanished"); n != 1 {
		t.Fatalf("gm.vms-vanished = %d, want 1", n)
	}
}

// TestSharedJournalPublishAllocatesNothing pins the cost of the shared
// journal on the hot path: with energy management off, no manager observes
// it, so publishing an event allocates nothing even on a hub that two
// GM-role managers share.
func TestSharedJournalPublishAllocatesNothing(t *testing.T) {
	c := New(DefaultConfig(workload.Grid5000Topology(4, 2), 5))
	c.Settle(30 * time.Second)
	if gms := c.GroupManagers(); len(gms) != 2 {
		t.Fatalf("fixture: %d GM-role managers, want 2", len(gms))
	}
	j := c.Telemetry.Journal()
	ev := telemetry.Event{At: c.Kernel.Now(), Type: telemetry.EventVMState, Entity: telemetry.VMEntity("probe"),
		Attrs: telemetry.A("state", "placed")}
	if n := testing.AllocsPerRun(100, func() { j.Publish(ev) }); n != 0 {
		t.Fatalf("Journal.Publish allocates %v times per event", n)
	}
}

// TestUnfedSeriesReapedAfterGMRestart covers a GM that crashes and restarts
// before the GL's GMTimeout, so the GL never declares it failed and never
// releases its owner stamps. A VM stopped on its hypervisor while the GM is
// down is listed by no report again. The restarted manager's new GM stint
// starts with an empty ledger: it releases the stamps its ID still holds and
// reaps the series no report feeds again, while the VMs that run on keep
// theirs.
func TestUnfedSeriesReapedAfterGMRestart(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(12, 3), 77)
	c, vms, resp, gms := settledWorkload(t, cfg)
	victim := gms[0]
	var gone types.VMID
	for _, spec := range vms {
		if node := resp.Placed[spec.ID]; c.LCs[node].GM() == victim.Addr() {
			gone = spec.ID
			break
		}
	}
	if gone == "" {
		t.Fatal("victim GM hosts no VM")
	}
	crashAt := c.Kernel.Now()
	victim.Crash()
	if err := c.Nodes[resp.Placed[gone]].StopVM(gone); err != nil {
		t.Fatalf("silent stop: %v", err)
	}
	// The crashed incarnation's election session must expire first.
	for i := 0; victim.Restart() != nil; i++ {
		if i == 60 {
			t.Fatal("restart still refused after 30 s")
		}
		c.Settle(500 * time.Millisecond)
	}
	if down := c.Kernel.Now() - crashAt; down >= cfg.Manager.GMTimeout || victim.Role() != hierarchy.RoleGM {
		t.Fatalf("fixture: %s is %v after %v down, want a GM back within GMTimeout", victim.ID(), victim.Role(), down)
	}
	c.Settle(cfg.Manager.GMTimeout + 4*cfg.Manager.LCTimeout + 60*time.Second)

	store := c.Telemetry.Store()
	for _, spec := range vms {
		n := store.Len(telemetry.VMEntity(spec.ID), "cpu.used")
		if spec.ID == gone && n != 0 {
			t.Fatalf("stopped VM %s kept its series: %d samples", spec.ID, n)
		} else if spec.ID != gone && reapedSince(store, telemetry.VMEntity(spec.ID), crashAt) {
			t.Fatalf("running VM %s lost its series", spec.ID)
		}
	}
	if n := c.Metrics.Count("gm.vms-vanished"); n < 1 {
		t.Fatalf("gm.vms-vanished = %d, want >= 1", n)
	}
}

// TestStaleGLHeartbeatIgnored replays a heartbeat of a crashed GL to an entry
// point after a new GL leads. Each GL stint heartbeats the epoch of its
// election znode, which grows across successive leaders, so the EP keeps
// naming the new GL.
func TestStaleGLHeartbeatIgnored(t *testing.T) {
	c := New(DefaultConfig(workload.Grid5000Topology(8, 2), 6))
	var beats []protocol.GLHeartbeat
	c.Bus.Register("test:listener", func(req *transport.Request) {
		if hb, ok := req.Payload.(protocol.GLHeartbeat); ok {
			beats = append(beats, hb)
		}
	})
	c.Bus.JoinGroup(protocol.GroupGL, "test:listener")
	c.Settle(30 * time.Second)
	old := c.CrashLeader()
	if old == nil || len(beats) == 0 || beats[len(beats)-1].Addr != string(old.Addr()) {
		t.Fatalf("fixture: leader %v, %d heartbeats recorded", old, len(beats))
	}
	stale := beats[len(beats)-1]
	c.Settle(45 * time.Second)
	nl := c.Leader()
	ep := c.EPs[0]
	if nl == nil || nl == old || ep.GL() != nl.Addr() {
		t.Fatalf("fixture: new leader %v, EP names %q", nl, ep.GL())
	}
	if err := c.Bus.Send("test:listener", ep.Addr(), protocol.KindGLHeartbeat, stale); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if got := ep.GL(); got != nl.Addr() {
		t.Fatalf("EP names %q after the stale heartbeat (epoch %d), want %s", got, stale.Epoch, nl.Addr())
	}
}
