package hierarchy

import (
	"testing"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/types"
)

// TestViewCacheGatesStoreReductions pins the two properties the GM's view
// builds promise over the per-entity view cache:
//
//  1. no sample appended ⇒ a repeated view build is served from the cache —
//     zero new telemetry-store reductions;
//  2. a member monitor-report append invalidates the entries it touches —
//     the next build reduces again, every build after that (no new sample)
//     reduces nothing.
//
// The builds are driven through the public placement path with an oversized
// VM: placeLocked builds the active views before discovering nothing fits,
// and the no-fit reply leaves no reservation behind.
func TestViewCacheGatesStoreReductions(t *testing.T) {
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
	store := m1.Telemetry().Store()

	// probe drives exactly one view build on m1: a Place request whose VM is
	// far larger than any node, so the build happens but no reservation
	// follows.
	probe := func(id string) {
		spec := types.VMSpec{ID: types.VMID(id), Requested: types.RV(1000, 1<<30, 10, 10)}
		r.bus.Call("test", m1.Addr(), protocol.KindPlace,
			protocol.PlaceRequest{VMs: []types.VMSpec{spec}}, time.Second,
			func(any, error) {})
		r.settle(30 * time.Millisecond)
	}

	// Align to the start of a quiet window: wait for the next monitor burst
	// to append samples, then let the whole burst drain. The next burst is a
	// full MonitorPeriod away, leaving plenty of room for two probes.
	align := store.TotalSamples()
	for i := 0; i < 1000 && store.TotalSamples() == align; i++ {
		r.settle(10 * time.Millisecond)
	}
	if store.TotalSamples() == align {
		t.Fatal("fixture: no sample appended — monitor reports not flowing")
	}
	r.settle(300 * time.Millisecond)

	// Property 1: two builds with no sample between them — the second build
	// hits the cache for every node and reduces nothing.
	probe("p1") // warm the cache
	s1 := store.TotalSamples()
	hits1, miss1 := m1.ViewMemoCounters()
	red1 := store.TotalReductions()

	probe("p2")
	s2 := store.TotalSamples()
	hits2, miss2 := m1.ViewMemoCounters()
	red2 := store.TotalReductions()

	if s2 != s1 {
		t.Fatalf("fixture: samples appended %d -> %d between probes; widen the quiet window", s1, s2)
	}
	if miss2 != miss1 {
		t.Fatalf("no sample appended but the cache missed: misses %d -> %d", miss1, miss2)
	}
	if hits2 < hits1+1 {
		t.Fatalf("second build did not hit the cache: hits %d -> %d", hits1, hits2)
	}
	if red2 != red1 {
		t.Fatalf("rebuild with no new sample reduced series: reductions %d -> %d", red1, red2)
	}

	// Property 2: the next monitor burst appends member reports; the first
	// build after it misses on the appended nodes, and the build after that
	// hits again with zero new reductions.
	for i := 0; i < 1000 && store.TotalSamples() == s2; i++ {
		r.settle(10 * time.Millisecond)
	}
	if store.TotalSamples() == s2 {
		t.Fatal("fixture: no sample appended after the quiet window")
	}
	r.settle(300 * time.Millisecond)

	probe("p3")
	s3 := store.TotalSamples()
	_, miss3 := m1.ViewMemoCounters()
	if miss3 == miss2 {
		t.Fatalf("monitor append should invalidate the cache: misses stuck at %d", miss2)
	}
	red3 := store.TotalReductions()
	if red3 == red2 {
		t.Fatalf("post-append rebuild served from cache: reductions stuck at %d", red2)
	}

	probe("p4")
	s4 := store.TotalSamples()
	hits4, miss4 := m1.ViewMemoCounters()
	red4 := store.TotalReductions()
	if s4 != s3 {
		t.Fatalf("fixture: samples appended %d -> %d between probes; widen the quiet window", s3, s4)
	}
	if miss4 != miss3 {
		t.Fatalf("repeat build after invalidation missed again: misses %d -> %d", miss3, miss4)
	}
	if hits4 == 0 {
		t.Fatal("cache recorded no hits at all")
	}
	if red4 != red3 {
		t.Fatalf("rebuild with no new sample reduced series: reductions %d -> %d", red3, red4)
	}
}
