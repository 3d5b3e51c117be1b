// Energy saving: the paper's thesis in one run — spreading VMs across
// moderately loaded nodes leaves nothing to suspend; add periodic ACO
// consolidation and idle servers appear, get suspended, and the cluster
// draws less power (Section III).
package main

import (
	"fmt"
	"log"
	"time"

	"snooze"
	"snooze/internal/consolidation/online"
	"snooze/internal/scheduling"
	"snooze/internal/telemetry"
	"snooze/internal/workload"
)

func run(consolidate bool) (kwh float64, suspended int) {
	top := snooze.Grid5000Topology(12, 1)
	cfg := snooze.DefaultClusterConfig(top, 9)

	// Day/night demand pattern for every VM.
	reg := workload.NewRegistry()
	reg.Register("diurnal", workload.DiurnalTrace{Low: 0.2, High: 0.7, MemFraction: 0.4, Period: 2 * time.Hour})
	cfg.Hypervisor.Traces = reg

	// Round-robin placement spreads the VMs (the anti-consolidation
	// baseline); energy management is on in both runs.
	cfg.Manager.Placement = &scheduling.RoundRobinPlacement{}
	cfg.Hub.Thresholds = telemetry.Thresholds{Overload: 0.95, Underload: 0, Repeat: 15 * time.Second}
	cfg.Manager.EnergyEnabled = true
	cfg.Manager.IdleThreshold = 2 * time.Minute
	if consolidate {
		// Periodic reconfiguration: every round executes its whole plan.
		cfg.Manager.Consolidation = online.Config{Enabled: true, Period: 20 * time.Minute, MigrationBudget: -1}
	}

	c := snooze.NewCluster(cfg)
	c.Settle(30 * time.Second)
	batch := snooze.NewGenerator(2, nil).Batch(20)
	for i := range batch {
		batch[i].TraceID = "diurnal"
	}
	if _, err := c.SubmitAndWait(batch, time.Hour); err != nil {
		log.Fatal(err)
	}
	c.Settle(2 * time.Hour) // one full diurnal period
	states := c.PowerStates()
	return c.TotalEnergyJoules() / 3.6e6, states[snooze.PowerSuspendedState]
}

func main() {
	base, s0 := run(false)
	cons, s1 := run(true)
	fmt.Printf("without consolidation: %.2f kWh (%d nodes suspended at end)\n", base, s0)
	fmt.Printf("with ACO consolidation: %.2f kWh (%d nodes suspended at end)\n", cons, s1)
	fmt.Printf("energy saved: %.1f%%\n", 100*(base-cons)/base)
	fmt.Println("\n(Section III: consolidation packs VMs 'on as few nodes as possible' to")
	fmt.Println(" favor the idle times the suspend mechanism converts into energy savings)")
}
