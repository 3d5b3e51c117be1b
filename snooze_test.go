package snooze_test

import (
	"testing"
	"time"

	"snooze"
)

// The facade test doubles as the documented quick-start: everything an
// external adopter touches must work through the package's exported surface.

func TestFacadeQuickstart(t *testing.T) {
	top := snooze.Grid5000Topology(8, 2)
	c := snooze.NewCluster(snooze.DefaultClusterConfig(top, 42))
	c.Settle(30 * time.Second)
	if c.Leader() == nil {
		t.Fatal("no leader")
	}
	resp, err := c.SubmitAndWait(snooze.NewGenerator(1, nil).Batch(5), 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Placed) != 5 {
		t.Fatalf("placed: %d", len(resp.Placed))
	}
}

func TestFacadeConsolidation(t *testing.T) {
	inst := snooze.NewInstance(snooze.InstanceConfig{Seed: 1, VMs: 16})
	p := snooze.Problem{VMs: inst.VMs, Nodes: inst.Nodes}
	aco, err := snooze.SolveACO(p, snooze.DefaultACOConfig())
	if err != nil {
		t.Fatal(err)
	}
	ffd, err := snooze.SolveFFD(p)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := snooze.SolveOptimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if aco.HostsUsed > ffd.HostsUsed {
		t.Fatalf("ACO (%d) worse than FFD (%d)", aco.HostsUsed, ffd.HostsUsed)
	}
	if opt.HostsUsed > aco.HostsUsed {
		t.Fatalf("optimal (%d) worse than ACO (%d)", opt.HostsUsed, aco.HostsUsed)
	}
	if !opt.Optimal {
		t.Fatal("exact solver did not prove optimality on a 16-VM instance")
	}
}

func TestFacadeEnergyManagement(t *testing.T) {
	cfg := snooze.DefaultClusterConfig(snooze.Grid5000Topology(4, 1), 7)
	cfg.Manager.EnergyEnabled = true
	cfg.Manager.IdleThreshold = 20 * time.Second
	// Periodic reconfiguration: the consolidation optimizer, whole plan per round.
	cfg.Manager.Consolidation.Enabled = true
	cfg.Manager.Consolidation.Period = time.Minute
	cfg.Manager.Consolidation.MigrationBudget = -1
	c := snooze.NewCluster(cfg)
	c.Settle(2 * time.Minute)
	if got := c.PowerStates()[snooze.PowerSuspendedState]; got == 0 {
		t.Fatalf("no idle nodes suspended: %v", c.PowerStates())
	}
}

func TestFacadeExperiments(t *testing.T) {
	r, err := snooze.RunExperiment("e7", snooze.ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "E7" || r.Table == nil {
		t.Fatalf("result: %+v", r)
	}
}

func TestFacadeRV(t *testing.T) {
	v := snooze.RV(1, 2, 3, 4)
	if v.CPU != 1 || v.Memory != 2 || v.NetRx != 3 || v.NetTx != 4 {
		t.Fatalf("RV: %+v", v)
	}
}
