package cluster

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"snooze/internal/hierarchy"
	"snooze/internal/scheduling/view"
	"snooze/internal/telemetry"
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

// TestSweepReapsVMVanishedWithCrashedGM pins the release of a dead GM's owner
// stamps: a VM that disappears between its GM's crash and its LC's rejoin is
// listed by no survivor's inventory, and the dead GM never sweeps again. When
// the GL declares the GM failed it drops the GM's stamps, so a survivor's
// liveness sweep reaps that VM's series once its grace runs out — while the
// series of every VM still running survive the failover.
func TestSweepReapsVMVanishedWithCrashedGM(t *testing.T) {
	top := workload.Grid5000Topology(12, 3)
	cfg := DefaultConfig(top, 77)
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
	grace := 4 * cfg.Manager.LCTimeout // the VMLivenessGrace default
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
