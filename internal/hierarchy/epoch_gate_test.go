package hierarchy

import (
	"testing"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/types"
)

// TestViewEpochGatesStoreReductions pins the two properties the GM-wide view
// epoch promises:
//
//  1. epoch unchanged ⇒ a repeated view build is a pure memo hit — zero new
//     telemetry-store reductions, the whole []view.Node comes from cache;
//  2. a member monitor-report append invalidates the memo exactly once — the
//     next build misses, every build after that (same epoch) hits again.
//
// The builds are driven through the public placement path with an oversized
// VM: placeLocked builds the active views before discovering nothing fits,
// and the no-fit reply leaves no reservation behind, so probing never moves
// the epoch itself.
func TestViewEpochGatesStoreReductions(t *testing.T) {
	r := newRig(91)
	r.manager("m0") // becomes GL
	r.settle(5 * time.Second)
	m1 := r.manager("m1") // becomes GM
	r.lc("n1")
	r.lc("n2")
	r.settle(30 * time.Second)
	if m1.Role() != RoleGM {
		t.Fatalf("fixture: m1 role %v, want GM", m1.Role())
	}
	if active, _ := m1.LCCount(); active != 2 {
		t.Fatalf("fixture: m1 manages %d active LCs, want 2", active)
	}

	// probe drives exactly one view build on m1: a Place request whose VM is
	// far larger than any node, so the build happens but no reservation (and
	// hence no epoch bump) follows.
	probe := func(id string) {
		spec := types.VMSpec{ID: types.VMID(id), Requested: types.RV(1000, 1<<30, 10, 10)}
		r.bus.Call("test", m1.Addr(), protocol.KindPlace,
			protocol.PlaceRequest{VMs: []types.VMSpec{spec}}, time.Second,
			func(any, error) {})
		r.settle(30 * time.Millisecond)
	}

	// Align to the start of a quiet window: wait for the next monitor burst
	// to bump the epoch, then let the whole burst drain. The next burst is a
	// full MonitorPeriod away, leaving plenty of room for two probes.
	align := m1.ViewEpoch()
	for i := 0; i < 1000 && m1.ViewEpoch() == align; i++ {
		r.settle(10 * time.Millisecond)
	}
	if m1.ViewEpoch() == align {
		t.Fatal("fixture: epoch never moved — monitor reports not flowing")
	}
	r.settle(300 * time.Millisecond)

	// Property 1: two builds in one epoch — one miss at most, and the second
	// build reduces nothing.
	probe("p1") // warm the memo at the current epoch
	e1 := m1.ViewEpoch()
	hits1, miss1 := m1.ViewMemoCounters()
	red1 := m1.Telemetry().Store().TotalReductions()

	probe("p2")
	e2 := m1.ViewEpoch()
	hits2, miss2 := m1.ViewMemoCounters()
	red2 := m1.Telemetry().Store().TotalReductions()

	if e2 != e1 {
		t.Fatalf("fixture: epoch moved %d -> %d between probes; widen the quiet window", e1, e2)
	}
	if miss2 != miss1 {
		t.Fatalf("epoch unchanged but memo missed: misses %d -> %d", miss1, miss2)
	}
	if hits2 < hits1+1 {
		t.Fatalf("second build did not hit the memo: hits %d -> %d", hits1, hits2)
	}
	if red2 != red1 {
		t.Fatalf("epoch-unchanged rebuild reduced series: reductions %d -> %d", red1, red2)
	}

	// Property 2: the next monitor burst appends member reports and bumps the
	// epoch; the first build after it misses exactly once, and the build
	// after that hits again with zero new reductions.
	for i := 0; i < 1000 && m1.ViewEpoch() == e2; i++ {
		r.settle(10 * time.Millisecond)
	}
	if m1.ViewEpoch() == e2 {
		t.Fatal("fixture: epoch never moved after the quiet window")
	}
	r.settle(300 * time.Millisecond)

	probe("p3")
	_, miss3 := m1.ViewMemoCounters()
	if miss3 != miss2+1 {
		t.Fatalf("monitor append should invalidate exactly once: misses %d -> %d", miss2, miss3)
	}
	red3 := m1.Telemetry().Store().TotalReductions()
	if red3 == red2 {
		t.Fatalf("post-append rebuild served from cache: reductions stuck at %d", red2)
	}

	probe("p4")
	hits4, miss4 := m1.ViewMemoCounters()
	red4 := m1.Telemetry().Store().TotalReductions()
	if miss4 != miss3 {
		t.Fatalf("repeat build after invalidation missed again: misses %d -> %d", miss3, miss4)
	}
	if hits4 == 0 {
		t.Fatal("memo recorded no hits at all")
	}
	if red4 != red3 {
		t.Fatalf("epoch-unchanged rebuild reduced series: reductions %d -> %d", red3, red4)
	}
}
