package hierarchy

import (
	"math"
	"testing"
	"time"

	"snooze/internal/consolidation"
	"snooze/internal/protocol"
	"snooze/internal/types"
)

// Consolidation must pack against residual capacity: reservations held by
// VMs that are NOT part of the re-packed set (suspended, starting, failed —
// anything non-running) stay subtracted from their node's capacity, so a
// plan can never double-book a slot a resident VM still owns.
func TestBuildReconfigProblemResidualCapacity(t *testing.T) {
	cap := types.RV(8, 32768, 1000, 1000)
	running := types.VMStatus{
		Spec:  types.VMSpec{ID: "run", Requested: types.RV(2, 4096, 10, 10)},
		State: types.VMRunning,
		Node:  "n1",
	}
	suspended := types.VMStatus{
		Spec:  types.VMSpec{ID: "susp", Requested: types.RV(4, 8192, 10, 10)},
		State: types.VMSuspended,
		Node:  "n1",
	}
	// The suspended VM is not listed: only running VMs are re-packed.
	problem, current, specs := consolidation.BuildProblem(
		[]consolidation.LiveNode{{
			Spec: types.NodeSpec{ID: "n1", Capacity: cap},
			// Reserved covers BOTH resident VMs.
			Reserved: running.Spec.Requested.Add(suspended.Spec.Requested),
		}},
		[]consolidation.LiveVM{{Spec: running.Spec, Node: "n1", Demand: running.Spec.Requested}})

	// Only the running VM is re-packed.
	if len(problem.VMs) != 1 || problem.VMs[0].ID != "run" {
		t.Fatalf("repacked VMs: %+v", problem.VMs)
	}
	if current["run"] != "n1" || len(current) != 1 {
		t.Fatalf("current placement: %+v", current)
	}
	if _, ok := specs["susp"]; ok {
		t.Fatal("suspended VM leaked into the spec map")
	}
	// The suspended VM's reservation must be carved out of node capacity.
	want := cap.Sub(suspended.Spec.Requested)
	if got := problem.Nodes[0].Capacity; got != want {
		t.Fatalf("residual capacity: got %v want %v", got, want)
	}
	// A plan filling the residual capacity exactly must not conflict with
	// the resident: residual + resident reservation == full capacity.
	if total := problem.Nodes[0].Capacity.Add(suspended.Spec.Requested); total != cap {
		t.Fatalf("resident conflict: %v + %v != %v", problem.Nodes[0].Capacity, suspended.Spec.Requested, cap)
	}
}

// The re-packed VM must be priced at max(reservation, estimated demand) so a
// hot VM is never squeezed into a slot its measured demand has outgrown.
func TestBuildReconfigProblemUsesDemandEstimate(t *testing.T) {
	cap := types.RV(8, 32768, 1000, 1000)
	vm := types.VMStatus{
		Spec:  types.VMSpec{ID: "hot", Requested: types.RV(1, 2048, 10, 10)},
		State: types.VMRunning,
		Node:  "n1",
	}
	est := types.RV(3, 1024, 10, 10) // CPU demand outgrew the reservation
	problem, _, specs := consolidation.BuildProblem(
		[]consolidation.LiveNode{{Spec: types.NodeSpec{ID: "n1", Capacity: cap}, Reserved: vm.Spec.Requested}},
		[]consolidation.LiveVM{{Spec: vm.Spec, Node: "n1", Demand: est}})
	want := vm.Spec.Requested.Max(est) // component-wise: cpu from est, mem from reservation
	if got := problem.VMs[0].Requested; got != want {
		t.Fatalf("sizing: got %v want %v", got, want)
	}
	if got := specs["hot"].Requested; got != want {
		t.Fatalf("spec map sizing: got %v want %v", got, want)
	}
}

func TestValidMonitorReport(t *testing.T) {
	now := 100 * time.Second
	good := protocol.MonitorReport{
		Status: types.NodeStatus{Used: types.RV(1, 1024, 5, 5)},
		VMs:    []types.VMStatus{{Used: types.RV(0.5, 512, 1, 1)}},
		AtNs:   int64(90 * time.Second),
	}
	if !validMonitorReport(good, now) {
		t.Fatal("valid report rejected")
	}
	unstamped := good
	unstamped.AtNs = 0
	if !validMonitorReport(unstamped, now) {
		t.Fatal("unstamped report rejected (must stay accepted for compatibility)")
	}
	nan := good
	nan.Status.Used = types.RV(math.NaN(), 1024, 5, 5)
	if validMonitorReport(nan, now) {
		t.Fatal("NaN node usage accepted")
	}
	neg := good
	neg.VMs = []types.VMStatus{{Used: types.RV(-1, 512, 1, 1)}}
	if validMonitorReport(neg, now) {
		t.Fatal("negative VM usage accepted")
	}
	future := good
	future.AtNs = int64(now + time.Hour)
	if validMonitorReport(future, now) {
		t.Fatal("future-stamped report accepted")
	}
}

// Retry backoff must be deterministic (same VM + attempt → same delay) and
// bounded: attempt n waits base·2^(n-2) plus at most one extra base of
// jitter, so the schedule is reproducible in the simulator and never
// degenerates into a synchronized thundering herd across VMs.
func TestMigrationDelayDeterministicAndBounded(t *testing.T) {
	base := migrationBackoff
	for attempt := 2; attempt <= 4; attempt++ {
		d1 := migrationDelay("vm-a", attempt)
		d2 := migrationDelay("vm-a", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d not deterministic: %v vs %v", attempt, d1, d2)
		}
		lo := base << uint(attempt-2)
		if d1 < lo || d1 >= lo+base {
			t.Fatalf("attempt %d delay %v outside [%v, %v)", attempt, d1, lo, lo+base)
		}
	}
	if migrationDelay("vm-a", 2) == migrationDelay("vm-b", 2) {
		t.Fatal("jitter does not separate VMs (hash collision in fixture is astronomically unlikely)")
	}
}
