package telemetry

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"snooze/internal/metrics"
	"snooze/internal/types"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func TestStoreAppendQueryWindow(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 8})
	for i := 0; i < 5; i++ {
		s.Append("node/n1", "util", sec(i), float64(i))
	}
	got := s.Query("node/n1", "util", sec(1), sec(3))
	if len(got) != 3 {
		t.Fatalf("window [1s,3s]: %v", got)
	}
	for i, sm := range got {
		if sm.At != sec(i+1) || sm.Value != float64(i+1) {
			t.Fatalf("sample %d: %+v", i, sm)
		}
	}
	if got := s.Query("node/n1", "util", 0, 0); len(got) != 5 {
		t.Fatalf("unbounded window: %d samples", len(got))
	}
	if got := s.Query("node/nX", "util", 0, 0); got != nil {
		t.Fatalf("unknown series: %v", got)
	}
}

func TestStoreRingOverwrite(t *testing.T) {
	// NoTiers isolates the raw ring: evicted samples are dropped, not folded
	// into retention tiers (retention_test.go covers the tiered path).
	s := NewStore(StoreConfig{SeriesCapacity: 4, Tiers: NoTiers})
	for i := 0; i < 10; i++ {
		s.Append("e", "m", sec(i), float64(i))
	}
	got := s.Query("e", "m", 0, 0)
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, sm := range got {
		if want := float64(6 + i); sm.Value != want {
			t.Fatalf("sample %d = %v, want %v (oldest evicted first)", i, sm.Value, want)
		}
	}
	if s.TotalSamples() != 10 {
		t.Fatalf("TotalSamples = %d", s.TotalSamples())
	}
	if s.Len("e", "m") != 4 {
		t.Fatalf("Len = %d", s.Len("e", "m"))
	}
}

func TestStoreQueryEmptyWindow(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 8})
	for i := 0; i < 5; i++ {
		s.Append("e", "m", sec(i), float64(i))
	}
	// from > to is the explicit empty window: nil, even over a live series.
	if got := s.Query("e", "m", sec(3), sec(1)); got != nil {
		t.Fatalf("inverted window: %v", got)
	}
	if n := s.Window("e", "m", sec(3), sec(1), func([]Sample) { t.Fatal("visited") }); n != 0 {
		t.Fatalf("inverted window visit count: %d", n)
	}
	// A window past the retained range is empty but not nil-by-accident: the
	// binary search proves it without scanning.
	if got := s.Query("e", "m", sec(10), sec(20)); len(got) != 0 {
		t.Fatalf("future window: %v", got)
	}
	// Window edges are inclusive on both ends.
	if got := s.Query("e", "m", sec(1), sec(1)); len(got) != 1 || got[0].Value != 1 {
		t.Fatalf("single-point window: %v", got)
	}
}

func TestStoreWindowAcrossRingWrap(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 8, Tiers: NoTiers})
	for i := 0; i < 12; i++ { // ring wraps: retained are 4s..11s, head mid-buffer
		s.Append("e", "m", sec(i), float64(i))
	}
	// Full retained range.
	if got := s.Query("e", "m", 0, 0); len(got) != 8 || got[0].Value != 4 || got[7].Value != 11 {
		t.Fatalf("full wrapped window: %v", got)
	}
	// A window straddling the physical ring boundary stays time-ordered.
	got := s.Query("e", "m", sec(5), sec(10))
	if len(got) != 6 {
		t.Fatalf("straddling window: %v", got)
	}
	for i, sm := range got {
		if sm.Value != float64(i+5) {
			t.Fatalf("straddling window order: %v", got)
		}
	}
	// Edges: from before the oldest retained sample clips to it; to beyond
	// the newest clips to it.
	if got := s.Query("e", "m", sec(0), sec(4)); len(got) != 1 || got[0].Value != 4 {
		t.Fatalf("left-clipped window: %v", got)
	}
	if got := s.Query("e", "m", sec(11), sec(99)); len(got) != 1 || got[0].Value != 11 {
		t.Fatalf("right-clipped window: %v", got)
	}
	// The zero-copy visitor sees the same window as Query, in order, split
	// into at most two ring segments.
	var visited []Sample
	segments := 0
	n := s.Window("e", "m", sec(5), sec(10), func(seg []Sample) {
		segments++
		visited = append(visited, seg...)
	})
	if n != 6 || segments != 2 || len(visited) != 6 {
		t.Fatalf("visitor: n=%d segments=%d visited=%v", n, segments, visited)
	}
	for i, sm := range visited {
		if sm.Value != float64(i+5) {
			t.Fatalf("visitor order: %v", visited)
		}
	}
	if s.Window("e", "m", 0, 0, func([]Sample) {}) != 8 {
		t.Fatal("visitor full window")
	}
	if s.Window("ghost", "m", 0, 0, func([]Sample) { t.Fatal("visited") }) != 0 {
		t.Fatal("visitor unknown series")
	}
}

func TestStoreKeysSortedAndSharded(t *testing.T) {
	s := NewStore(StoreConfig{Shards: 4})
	s.Append("b", "y", 0, 1)
	s.Append("a", "z", 0, 1)
	s.Append("a", "x", 0, 1)
	keys := s.Keys()
	want := []Key{{"a", "x"}, {"a", "z"}, {"b", "y"}}
	if len(keys) != len(want) {
		t.Fatalf("keys: %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
	if s.NumSeries() != 3 {
		t.Fatalf("NumSeries = %d", s.NumSeries())
	}
}

func TestStoreConcurrentIngest(t *testing.T) {
	s := NewStore(StoreConfig{SeriesCapacity: 64})
	const writers, per = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			entity := fmt.Sprintf("node/n%02d", w)
			for i := 0; i < per; i++ {
				s.Append(entity, "util", sec(i), float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := s.TotalSamples(); got != writers*per {
		t.Fatalf("TotalSamples = %d, want %d", got, writers*per)
	}
	if s.NumSeries() != writers {
		t.Fatalf("NumSeries = %d", s.NumSeries())
	}
}

func TestDownsample(t *testing.T) {
	var in []Sample
	for i := 0; i < 10; i++ { // 0..9s, values 0..9
		in = append(in, Sample{At: sec(i), Value: float64(i)})
	}
	avg := Downsample(in, 5*time.Second, AggAvg)
	if len(avg) != 2 || avg[0].Value != 2 || avg[1].Value != 7 {
		t.Fatalf("avg: %v", avg)
	}
	if avg[0].At != 0 || avg[1].At != sec(5) {
		t.Fatalf("bucket stamps: %v", avg)
	}
	mn := Downsample(in, 5*time.Second, AggMin)
	mx := Downsample(in, 5*time.Second, AggMax)
	if mn[1].Value != 5 || mx[1].Value != 9 {
		t.Fatalf("min/max: %v %v", mn, mx)
	}
	p50 := Downsample(in, 0, "p50")
	if len(p50) != 1 || math.Abs(p50[0].Value-4.5) > 1e-9 {
		t.Fatalf("p50 whole-window: %v", p50)
	}
	last := Downsample(in, 0, AggLast)
	if last[0].Value != 9 {
		t.Fatalf("last: %v", last)
	}
	if out := Downsample(nil, time.Second, AggAvg); out != nil {
		t.Fatalf("empty input: %v", out)
	}
}

func TestParseAgg(t *testing.T) {
	for _, ok := range []string{"min", "max", "avg", "last", "p50", "p99", "p99.9"} {
		if _, err := ParseAgg(ok); err != nil {
			t.Fatalf("ParseAgg(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "mean", "p", "p101", "px"} {
		if _, err := ParseAgg(bad); err == nil {
			t.Fatalf("ParseAgg(%q) accepted", bad)
		}
	}
}

func TestJournalPublishReplay(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		ev := j.Publish(Event{Type: EventVMState, Entity: fmt.Sprintf("vm/v%d", i)})
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq %d on publish %d", ev.Seq, i)
		}
	}
	if j.FirstSeq() != 3 || j.LastSeq() != 6 {
		t.Fatalf("retention window [%d,%d], want [3,6]", j.FirstSeq(), j.LastSeq())
	}
	all := j.Replay(0, 0)
	if len(all) != 4 || all[0].Seq != 3 || all[3].Seq != 6 {
		t.Fatalf("replay all: %v", all)
	}
	some := j.Replay(5, 0)
	if len(some) != 2 || some[0].Seq != 5 {
		t.Fatalf("replay from 5: %v", some)
	}
	capped := j.Replay(0, 2)
	if len(capped) != 2 || capped[1].Seq != 4 {
		t.Fatalf("replay capped: %v", capped)
	}
}

func TestJournalSubscribeReplayThenLive(t *testing.T) {
	j := NewJournal(16)
	j.Publish(Event{Type: "a"})
	j.Publish(Event{Type: "b"})
	sub := j.Subscribe(2, 8)
	defer sub.Close()
	j.Publish(Event{Type: "c"})
	want := []string{"b", "c"}
	for i, w := range want {
		select {
		case ev := <-sub.Events():
			if ev.Type != w || ev.Seq != uint64(i+2) {
				t.Fatalf("event %d: %+v", i, ev)
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for %q", w)
		}
	}
}

func TestJournalSlowSubscriberLagsOut(t *testing.T) {
	j := NewJournal(64)
	sub := j.Subscribe(0, 2)
	for i := 0; i < 5; i++ { // buffer 2 → overflow on the 3rd publish
		j.Publish(Event{Type: "x"})
	}
	// Drain: the channel must close after the buffered events.
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("delivered %d before lag-out, want 2", n)
	}
	if sub.Err() != ErrLagged {
		t.Fatalf("Err = %v, want ErrLagged", sub.Err())
	}
	if j.Subscribers() != 0 {
		t.Fatalf("lagged subscriber still registered")
	}
	sub.Close() // idempotent after lag-out
}

func nodeStatus(id string, usedCPU float64, vms int) types.NodeStatus {
	st := types.NodeStatus{
		Spec:  types.NodeSpec{ID: types.NodeID(id), Capacity: types.RV(8, 32768, 1000, 1000)},
		Power: types.PowerOn,
		Used:  types.RV(usedCPU, 1024, 1, 1),
	}
	for i := 0; i < vms; i++ {
		st.VMs = append(st.VMs, types.VMID(fmt.Sprintf("v%d", i)))
	}
	return st
}

func TestDetectorCrossingsAndRepeat(t *testing.T) {
	d := NewDetector(Thresholds{Overload: 0.9, Underload: 0.2, Repeat: 10 * time.Second})

	// First observation, normal: silent.
	if _, ok := d.Observe("node/n1", 0, nodeStatus("n1", 4, 1)); ok {
		t.Fatal("normal first observation fired")
	}
	// Crossing into overload fires once...
	ev, ok := d.Observe("node/n1", sec(3), nodeStatus("n1", 7.9, 2))
	if !ok || ev.Type != EventNodeOverload {
		t.Fatalf("overload crossing: %+v %v", ev, ok)
	}
	// ...then stays quiet until Repeat elapses.
	if _, ok := d.Observe("node/n1", sec(6), nodeStatus("n1", 7.9, 2)); ok {
		t.Fatal("re-fired before Repeat")
	}
	if ev, ok := d.Observe("node/n1", sec(13), nodeStatus("n1", 7.9, 2)); !ok || ev.Type != EventNodeOverload {
		t.Fatalf("no re-emission after Repeat: %+v %v", ev, ok)
	}
	// Recovery fires node.normal.
	if ev, ok := d.Observe("node/n1", sec(15), nodeStatus("n1", 4, 2)); !ok || ev.Type != EventNodeNormal {
		t.Fatalf("recovery: %+v %v", ev, ok)
	}
	if d.Condition("node/n1") != "normal" {
		t.Fatalf("condition: %s", d.Condition("node/n1"))
	}
	// Underload needs hosted VMs.
	if _, ok := d.Observe("node/n2", 0, nodeStatus("n2", 0.1, 0)); ok {
		t.Fatal("empty node classified underloaded")
	}
	if ev, ok := d.Observe("node/n3", 0, nodeStatus("n3", 0.1, 1)); !ok || ev.Type != EventNodeUnderload {
		t.Fatalf("underload: %+v %v", ev, ok)
	}
	// Powered-off nodes are never anomalous.
	st := nodeStatus("n3", 0.1, 1)
	st.Power = types.PowerSuspended
	if ev, ok := d.Observe("node/n3", sec(1), st); !ok || ev.Type != EventNodeNormal {
		t.Fatalf("suspended node should recover to normal: %+v %v", ev, ok)
	}
}

func TestDetectorSuppressedCrossingKeepsEventsPaired(t *testing.T) {
	d := NewDetector(Thresholds{Overload: 0.9, Underload: 0.2, Repeat: 15 * time.Second})
	// Announced overload at t=0, recovery at t=5.
	if ev, ok := d.Observe("node/n1", 0, nodeStatus("n1", 7.9, 1)); !ok || ev.Type != EventNodeOverload {
		t.Fatalf("first overload: %+v %v", ev, ok)
	}
	if ev, ok := d.Observe("node/n1", sec(5), nodeStatus("n1", 4, 1)); !ok || ev.Type != EventNodeNormal {
		t.Fatalf("first recovery: %+v %v", ev, ok)
	}
	// Re-crossing at t=7 is inside the cooldown: suppressed.
	if _, ok := d.Observe("node/n1", sec(7), nodeStatus("n1", 7.9, 1)); ok {
		t.Fatal("crossing inside cooldown fired")
	}
	// The suppressed episode must not close with an unpaired node.normal.
	if ev, ok := d.Observe("node/n1", sec(9), nodeStatus("n1", 4, 1)); ok {
		t.Fatalf("unpaired recovery fired: %+v", ev)
	}
	// After the cooldown, the next episode announces and pairs again.
	if ev, ok := d.Observe("node/n1", sec(20), nodeStatus("n1", 7.9, 1)); !ok || ev.Type != EventNodeOverload {
		t.Fatalf("post-cooldown overload: %+v %v", ev, ok)
	}
	if ev, ok := d.Observe("node/n1", sec(22), nodeStatus("n1", 4, 1)); !ok || ev.Type != EventNodeNormal {
		t.Fatalf("post-cooldown recovery: %+v %v", ev, ok)
	}
}

func TestStoreRemoveEntity(t *testing.T) {
	s := NewStore(StoreConfig{})
	s.Append("node/n1", "util", 0, 1)
	s.Append("node/n1", "vms", 0, 2)
	s.Append("node/n2", "util", 0, 3)
	s.RemoveEntity("node/n1")
	if s.NumSeries() != 1 || s.Len("node/n1", "util") != 0 || s.Len("node/n2", "util") != 1 {
		t.Fatalf("after remove: %v", s.Keys())
	}
}

func TestHubEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHub(Options{Metrics: reg, Thresholds: Thresholds{Overload: 0.8, Underload: 0.2}})
	h.RecordNode(sec(1), nodeStatus("n1", 4, 1))
	if got := h.Store().Query("node/n1", "util", 0, 0); len(got) != 1 || got[0].Value != 0.5 {
		t.Fatalf("util series: %v", got)
	}
	h.RecordGroup(sec(1), types.GroupSummary{GM: "gm-00", Used: types.RV(4, 0, 0, 0), VMs: 3, ActiveLCs: 2})
	if got := h.Store().Query("gm/gm-00", "vms", 0, 0); len(got) != 1 || got[0].Value != 3 {
		t.Fatalf("group series: %v", got)
	}

	sub := h.Journal().Subscribe(0, 8)
	defer sub.Close()
	ev, fired := h.DetectNode(sec(2), nodeStatus("n1", 7.5, 2))
	if !fired || ev.Type != EventNodeOverload || ev.Seq == 0 {
		t.Fatalf("DetectNode: %+v %v", ev, fired)
	}
	select {
	case got := <-sub.Events():
		if got.Seq != ev.Seq || got.Entity != "node/n1" {
			t.Fatalf("fan-out event: %+v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("detector event not fanned out")
	}

	h.PublishGauges()
	if v, ok := reg.Gauge("telemetry.series"); !ok || v < 8 {
		t.Fatalf("series gauge: %v %v", v, ok)
	}
	if v, ok := reg.Gauge("telemetry.samples-total"); !ok || v < 8 {
		t.Fatalf("samples gauge: %v %v", v, ok)
	}
	if reg.Count("telemetry.events") == 0 {
		t.Fatal("event counter not recorded")
	}
}

func TestHubClaimOwnerRelease(t *testing.T) {
	h := NewHub(Options{})
	if _, ok := h.Owner("vm/v1"); ok {
		t.Fatal("unclaimed entity has an owner")
	}
	h.Claim("vm/v1", "gm-a")
	h.Claim("vm/v2", "gm-a")
	h.Claim("gm/gm-a", "gm-a")
	h.Claim("vm/v3", "gm-b")
	// Ownership follows the monitoring flow: a re-claim moves the stamp.
	h.Claim("vm/v2", "gm-b")
	if owner, ok := h.Owner("vm/v2"); !ok || owner != "gm-b" {
		t.Fatalf("re-claimed owner = %q, %v; want gm-b, true", owner, ok)
	}

	h.Release("gm-a")
	for _, entity := range []string{"vm/v1", "gm/gm-a"} {
		if owner, ok := h.Owner(entity); ok {
			t.Fatalf("%s still owned by %q after Release(gm-a)", entity, owner)
		}
	}
	for _, entity := range []string{"vm/v2", "vm/v3"} {
		if owner, ok := h.Owner(entity); !ok || owner != "gm-b" {
			t.Fatalf("%s owner = %q, %v after Release(gm-a); want gm-b, true", entity, owner, ok)
		}
	}
	// ForgetEntity drops the stamp with the series.
	h.ForgetEntity("vm/v3")
	if _, ok := h.Owner("vm/v3"); ok {
		t.Fatal("forgotten entity kept its owner stamp")
	}
}

func TestValidSample(t *testing.T) {
	for _, tc := range []struct {
		v  float64
		ok bool
	}{
		{0, true}, {0.5, true}, {1e9, true},
		{-0.001, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		if got := ValidSample(tc.v); got != tc.ok {
			t.Errorf("ValidSample(%v) = %v, want %v", tc.v, got, tc.ok)
		}
	}
}

func TestJournalObservers(t *testing.T) {
	j := NewJournal(16)
	var seen []uint64
	cancel := j.Observe(func(ev Event) { seen = append(seen, ev.Seq) })
	j.Publish(Event{Type: EventVMState})
	j.Publish(Event{Type: EventNodeIdle})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("observed: %v", seen)
	}
	cancel()
	cancel() // idempotent
	j.Publish(Event{Type: EventVMState})
	if len(seen) != 2 {
		t.Fatalf("observer survived cancel: %v", seen)
	}
}

func TestJournalObserverRunsOutsideLock(t *testing.T) {
	// An observer may publish back into the journal (e.g. a reaction event):
	// the fan-out must happen after the journal lock is released.
	j := NewJournal(16)
	reacted := false
	var cancel func()
	cancel = j.Observe(func(ev Event) {
		if ev.Type == EventNodeIdle && !reacted {
			reacted = true
			cancel()
			j.Publish(Event{Type: EventVMState})
		}
	})
	j.Publish(Event{Type: EventNodeIdle})
	if !reacted || j.LastSeq() != 2 {
		t.Fatalf("reentrant publish: reacted=%v lastSeq=%d", reacted, j.LastSeq())
	}
}

func TestHubForgetsTerminalVMs(t *testing.T) {
	h := NewHub(Options{})
	vm := types.VMStatus{Spec: types.VMSpec{ID: "v1"}, Used: types.RV(1, 100, 1, 1)}
	h.RecordVM(time.Second, vm)
	h.RecordVM(2*time.Second, vm)
	if h.Store().Len(VMEntity("v1"), "cpu.used") == 0 {
		t.Fatal("fixture: no samples recorded")
	}
	// Non-terminal states keep the series.
	h.Emit(EventVMState, VMEntity("v1"), 3*time.Second, A("state", "migrated"))
	if h.Store().Len(VMEntity("v1"), "cpu.used") == 0 {
		t.Fatal("non-terminal vm.state dropped the series")
	}
	// Terminal state drops every series of the VM.
	h.Emit(EventVMState, VMEntity("v1"), 4*time.Second, A("state", "failed"))
	for _, k := range h.Store().Keys() {
		if k.Entity == VMEntity("v1") {
			t.Fatalf("series %v lingers after terminal vm.state", k)
		}
	}
	// Attr-less events (and other entities) are untouched.
	h.Record(NodeEntity("n1"), "util", 5*time.Second, 0.5)
	h.Emit(EventVMState, VMEntity("v2"), 6*time.Second, Attrs{})
	if h.Store().Len(NodeEntity("n1"), "util") != 1 {
		t.Fatal("unrelated series affected")
	}
}
