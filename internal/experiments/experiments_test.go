package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"snooze/internal/cluster"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// The experiment suite at quick scale must run clean (no ERROR cells) and
// reproduce the paper's qualitative shapes. These tests are the repo's
// regression net for the reproduced results.

func tableText(t *testing.T, r Result) string {
	t.Helper()
	txt := r.Table.String()
	if strings.Contains(txt, "ERROR") {
		t.Fatalf("%s contains errors:\n%s", r.ID, txt)
	}
	return txt
}

func TestE1Shape(t *testing.T) {
	r := E1SubmissionScalability(ScaleQuick)
	tableText(t, r)
	if r.ID != "E1" || len(r.Notes) == 0 {
		t.Fatalf("metadata: %+v", r)
	}
}

func TestE2Shape(t *testing.T) {
	r := E2ManagementOverhead(ScaleQuick)
	tableText(t, r)
}

func TestE3AvailabilityIs100Percent(t *testing.T) {
	r := E3FaultTolerance(ScaleQuick)
	tableText(t, r)
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "still running") {
			found = true
			if !strings.Contains(n, "100.0%") {
				t.Fatalf("availability not 100%%: %s", n)
			}
		}
	}
	if !found {
		t.Fatal("availability note missing")
	}
}

func TestE4ACOWinsOnAggregate(t *testing.T) {
	r := E4ACOvsFFD(ScaleQuick)
	txt := tableText(t, r)
	// The headline shape: ACO saves hosts and energy vs FFD on average.
	var hostsSaved, energySaved string
	for _, n := range r.Notes {
		if strings.Contains(n, "hosts saved") {
			hostsSaved = n
		}
		if strings.Contains(n, "energy saved") {
			energySaved = n
		}
	}
	if hostsSaved == "" || energySaved == "" {
		t.Fatalf("notes missing: %v", r.Notes)
	}
	if strings.Contains(hostsSaved, "-") && !strings.Contains(hostsSaved, "vs FFD: -0.0") {
		// A leading minus would mean ACO used MORE hosts.
		if strings.Contains(hostsSaved, ": -") {
			t.Fatalf("ACO used more hosts than FFD: %s\n%s", hostsSaved, txt)
		}
	}
}

func TestE5ConsolidationSavesEnergy(t *testing.T) {
	r := E5EnergySavings(ScaleQuick)
	txt := tableText(t, r)
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	// Parse the kWh column: baseline is row 3 (after header+sep),
	// consolidation is the last row.
	var base, consolidated float64
	for _, line := range lines[2:] {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		kwh, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case "no-power-mgmt":
			base = kwh
		case "suspend+consolidation":
			consolidated = kwh
		}
	}
	if base == 0 || consolidated == 0 {
		t.Fatalf("could not parse kWh column:\n%s", txt)
	}
	if consolidated >= base {
		t.Fatalf("consolidation did not save energy: %.2f >= %.2f\n%s", consolidated, base, txt)
	}
}

func TestE6HealsBounded(t *testing.T) {
	r := E6SelfHealing(ScaleQuick)
	txt := tableText(t, r)
	if !strings.Contains(txt, "s") {
		t.Fatalf("no heal times:\n%s", txt)
	}
}

func TestE7AblationRuns(t *testing.T) {
	r := E7ACOAblation(ScaleQuick)
	tableText(t, r)
}

func TestE9GrayFailuresShape(t *testing.T) {
	r := E9GrayFailures(ScaleQuick)
	txt := tableText(t, r)
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	rows := 0
	for _, line := range lines[2:] {
		fields := strings.Fields(line)
		if len(fields) < 6 {
			continue
		}
		rows++
		name := fields[0]
		before, err1 := strconv.Atoi(fields[2])
		after, err2 := strconv.Atoi(fields[3])
		rejects, err3 := strconv.Atoi(fields[4])
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable row %q:\n%s", line, txt)
		}
		// No gray failure may lose running VMs once healed.
		if after < before {
			t.Fatalf("%s lost VMs: %d -> %d\n%s", name, before, after, txt)
		}
		// Corrupted reports must be rejected at ingestion, and only there.
		if strings.HasPrefix(name, "corrupt-") && rejects == 0 {
			t.Fatalf("%s produced no monitor rejects:\n%s", name, txt)
		}
		if !strings.HasPrefix(name, "corrupt-") && rejects != 0 {
			t.Fatalf("%s unexpectedly rejected reports:\n%s", name, txt)
		}
	}
	if rows != 5 {
		t.Fatalf("expected 5 scenarios, got %d:\n%s", rows, txt)
	}
}

func TestF1FleetThroughputShape(t *testing.T) {
	r := F1FleetThroughput(ScaleQuick)
	txt := tableText(t, r)
	// The fleet has capacity to spare: every wave must be placed in full.
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected one row:\n%s", txt)
	}
	fields := strings.Fields(lines[2])
	if placed, err := strconv.Atoi(fields[2]); err != nil || placed != 6*24 {
		t.Fatalf("placed %s of %d VMs:\n%s", fields[2], 6*24, txt)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7",
		"submission-scalability", "aco-vs-ffd"} {
		if id == "e1" || id == "e2" || id == "e3" || id == "e5" || id == "e6" {
			continue // covered above; skip the slow re-runs
		}
		if _, err := ByID(id, ScaleQuick); err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}
	for _, id := range []string{"bogus", "e8", "distributed-aco"} { // E8 went with DistributedACO
		if _, err := ByID(id, ScaleQuick); err == nil {
			t.Fatalf("unknown experiment %q accepted", id)
		}
	}
}

func TestSubmitWithRetryServesAfterFailover(t *testing.T) {
	cfg := cluster.DefaultConfig(workload.Grid5000Topology(8, 2), 99)
	c := cluster.New(cfg)
	c.Settle(30 * time.Second)
	c.CrashLeader()
	vms := []types.VMSpec{{ID: "retry-vm", Requested: types.RV(1, 1024, 10, 10)}}
	resp, err := submitWithRetry(c, vms, 2*time.Second, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Placed) != 1 {
		t.Fatalf("placed: %+v", resp)
	}
}

func TestResultString(t *testing.T) {
	r := E7ACOAblation(ScaleQuick)
	s := r.String()
	if !strings.Contains(s, "E7") || !strings.Contains(s, "note:") {
		t.Fatalf("rendering: %s", s)
	}
}
