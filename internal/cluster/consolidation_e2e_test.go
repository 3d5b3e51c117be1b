package cluster

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/internal/consolidation/online"
	"snooze/internal/scheduling"
	"snooze/internal/telemetry"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// These tests exercise the continuous consolidation service end to end: the
// GM-embedded optimizer (internal/consolidation/online) planning from live
// capacity views, executing budgeted migrations through the hierarchy, and
// cancelling plans when the trends they were computed from shift.

// TestOnlineConsolidationImprovesPackingUnderChurn spreads eight VMs over
// eight nodes and lets the online optimizer pack them while their demand
// oscillates (phase-shifted diurnal traces). The packing must improve across
// at least two distinct rounds — the per-round migration budget of 2 makes a
// one-shot collapse impossible — and no round may exceed the budget.
func TestOnlineConsolidationImprovesPackingUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long convergence test (several simulated consolidation rounds)")
	}
	top := workload.Grid5000Topology(8, 1)
	cfg := DefaultConfig(top, 42)
	// Demand oscillates between 85% and 95% of the reservation with per-VM
	// phase shifts: enough churn that every round re-prices the problem, but
	// a p95 demand (~1.9 CPU) that keeps four VMs per 8-CPU node feasible by
	// demand AND by reservation, so planned migrations are admissible.
	reg := workload.NewRegistry()
	for i := 0; i < 8; i++ {
		reg.Register(fmt.Sprintf("churn%d", i), workload.DiurnalTrace{
			Low: 0.85, High: 0.95, MemFraction: 0.8,
			Period: 20 * time.Minute,
			Phase:  time.Duration(i) * 2 * time.Minute,
		})
	}
	cfg.Hypervisor.Traces = reg
	cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
	// A packed node peaks at 95% measured utilization; keep overload
	// relocation out of the picture so only the optimizer moves VMs.
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: 0.99, Underload: 0, Repeat: 15 * time.Second}
	cfg.Manager.Consolidation = online.Config{
		Enabled:         true,
		Period:          2 * time.Minute,
		MigrationBudget: 2,
		Colonies:        2,
	}
	c := New(cfg)
	c.Settle(30 * time.Second)

	var vms []types.VMSpec
	for i := 0; i < 8; i++ {
		s := vmSpec(fmt.Sprintf("v%d", i), 2, 4096)
		s.TraceID = fmt.Sprintf("churn%d", i)
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
	floor := c.Telemetry.Journal().LastSeq()

	c.Settle(12 * time.Minute) // several budgeted rounds

	if rounds := c.Metrics.Count("gm.consolidation-rounds"); rounds < 2 {
		t.Fatalf("gm.consolidation-rounds = %d, want >= 2", rounds)
	}
	if migs := c.Metrics.Count("gm.consolidation-migrations"); migs < 4 {
		t.Fatalf("gm.consolidation-migrations = %d, want >= 4", migs)
	}
	occupiedAfter := occupiedNodes(c)
	if occupiedAfter >= occupiedBefore {
		t.Fatalf("online consolidation did not pack: %d -> %d nodes", occupiedBefore, occupiedAfter)
	}
	// 8 VMs × ~1.9 CPU p95 demand on 8-CPU nodes: 2 nodes suffice.
	if occupiedAfter > 3 {
		t.Fatalf("weak consolidation: still %d nodes", occupiedAfter)
	}

	// The journal must show the same story round by round: nobody exceeded
	// the budget, and the packing improved in at least two distinct rounds.
	improving := 0
	for _, ev := range c.Telemetry.Journal().Replay(floor+1, 0) {
		if ev.Type != telemetry.EventConsolidationRound {
			continue
		}
		executed := atoiAttr(t, ev, "executed")
		if executed > 2 {
			t.Fatalf("round exceeded migration budget: %+v", ev)
		}
		if executed > 0 && atoiAttr(t, ev, "hostsAfter") < atoiAttr(t, ev, "hostsBefore") {
			improving++
		}
	}
	if improving < 2 {
		t.Fatalf("packing improved in %d rounds, want >= 2", improving)
	}
	// No VM lost in the shuffle.
	if c.RunningVMs() != 8 {
		t.Fatalf("running VMs after consolidation: %d", c.RunningVMs())
	}
}

// TestOnlineConsolidationCancelsOnTrendReversal forces the scenario the
// cancellation gates exist for: a plan computed from a still-hot p95 window
// while the actual load has just collapsed. Four VMs run hot long enough to
// dominate the demand window, then drop to near idle; the optimizer is
// started only after the drop, so its first round plans a consolidation from
// the hot p95 but every source's fresh trend is falling — the first migration
// must be cancelled and the plan abandoned, with nothing moved.
func TestOnlineConsolidationCancelsOnTrendReversal(t *testing.T) {
	top := workload.Grid5000Topology(4, 1)
	cfg := DefaultConfig(top, 17)
	reg := workload.NewRegistry()
	reg.Register("fade", workload.OnOffTrace{
		Busy: 0.9, OnFor: 4 * time.Minute, OffFor: 2 * time.Hour, IdleFraction: 0.05,
	})
	cfg.Hypervisor.Traces = reg
	cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: 0.99, Underload: 0, Repeat: 15 * time.Second}
	// Enabled is off: the test starts the optimizer at a chosen instant via
	// the control surface. The step down from 90% to 5% utilization yields a
	// regression slope around -0.001/s over the 5-minute view window, so the
	// gate is sensitized below that (the -0.002 default targets steeper
	// drains).
	cfg.Manager.Consolidation = online.Config{
		Period:             time.Minute,
		MigrationBudget:    4,
		Colonies:           2,
		SourceFallingTrend: -0.0001,
	}
	c := New(cfg)
	c.Settle(30 * time.Second)

	var vms []types.VMSpec
	for i := 0; i < 4; i++ {
		s := vmSpec(fmt.Sprintf("v%d", i), 2, 4096)
		s.TraceID = "fade"
		vms = append(vms, s)
	}
	resp, err := c.SubmitAndWait(vms, 2*time.Minute)
	if err != nil || len(resp.Placed) != 4 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(10 * time.Second)
	if occupiedNodes(c) != 4 {
		t.Fatalf("fixture: want 4 occupied nodes, got %d", occupiedNodes(c))
	}

	// Run past the load drop (traces are in absolute simulation time: the
	// drop is at t=4m), then start the optimizer. Its first round fires one
	// period later, while the p95 window still reads hot but the fresh trend
	// is already falling.
	if target := 4*time.Minute + 50*time.Second; c.Kernel.Now() < target {
		c.Settle(target - c.Kernel.Now())
	}
	floor := c.Telemetry.Journal().LastSeq()
	ctx := context.Background()
	if list, err := c.Backend.StartConsolidation(ctx); err != nil || len(list.Items) == 0 {
		t.Fatalf("no GM accepted the consolidation start: %+v %v", list, err)
	}
	c.Settle(90 * time.Second) // exactly one round

	if cancels := c.Metrics.Count("gm.consolidation-cancels"); cancels < 1 {
		t.Fatalf("gm.consolidation-cancels = %d, want >= 1", cancels)
	}
	if migs := c.Metrics.Count("gm.consolidation-migrations"); migs != 0 {
		t.Fatalf("gm.consolidation-migrations = %d, want 0 (plan must be abandoned)", migs)
	}
	if occupiedNodes(c) != 4 {
		t.Fatalf("cancelled plan still moved VMs: %d occupied nodes", occupiedNodes(c))
	}
	cancelled, planned := 0, 0
	for _, ev := range c.Telemetry.Journal().Replay(floor+1, 0) {
		switch ev.Type {
		case telemetry.EventConsolidationMigration:
			if ev.Attrs.Get("outcome") != "cancelled" || ev.Attrs.Get("reason") != "source-trend-falling" {
				t.Fatalf("unexpected migration event: %+v", ev)
			}
			cancelled++
		case telemetry.EventConsolidationRound:
			planned += atoiAttr(t, ev, "planned")
			if atoiAttr(t, ev, "executed") != 0 {
				t.Fatalf("round executed migrations despite reversal: %+v", ev)
			}
		}
	}
	if cancelled < 1 || planned < 1 {
		t.Fatalf("want a planned migration cancelled in the journal, got planned=%d cancelled=%d", planned, cancelled)
	}
	list, err := c.Backend.ConsolidationStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var status apiv1.ConsolidationStatus
	for _, st := range list.Items {
		if st.Rounds > 0 {
			status = st
		}
	}
	if status.Cancels < 1 || status.LastRound == nil || status.LastRound.Planned < 1 || status.LastRound.Executed != 0 {
		t.Fatalf("optimizer status does not reflect the cancel: %+v", status)
	}
	if c.RunningVMs() != 4 {
		t.Fatalf("running VMs: %d", c.RunningVMs())
	}
	if list, err = c.Backend.StopConsolidation(ctx); err != nil || len(list.Items) == 0 {
		t.Fatalf("consolidation stop: %+v %v", list, err)
	}
	for _, st := range list.Items {
		if st.Running {
			t.Fatalf("optimizer still running after stop: %+v", st)
		}
	}
}

func atoiAttr(t *testing.T, ev telemetry.Event, key string) int {
	t.Helper()
	n, err := strconv.Atoi(ev.Attrs.Get(key))
	if err != nil {
		t.Fatalf("event %+v: attr %q: %v", ev, key, err)
	}
	return n
}
