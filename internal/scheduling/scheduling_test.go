package scheduling

import (
	"fmt"
	"sort"
	"testing"

	"snooze/internal/scheduling/view"
	"snooze/internal/types"
)

// gm and node build snapshot-only capacity views (no history → not fresh),
// the fallback form every policy must handle.
func gm(id string, usedCPU, totalCPU float64, lcs int) view.Group {
	return view.Group{GroupSummary: types.GroupSummary{
		GM:        types.GroupManagerID(id),
		Used:      types.RV(usedCPU, usedCPU*1024, 0, 0),
		Reserved:  types.RV(usedCPU, usedCPU*1024, 0, 0),
		Total:     types.RV(totalCPU, totalCPU*1024, 0, 0),
		ActiveLCs: lcs,
	}}
}

func node(id string, resCPU, capCPU float64) view.Node {
	return view.Node{NodeStatus: types.NodeStatus{
		Spec:     types.NodeSpec{ID: types.NodeID(id), Capacity: types.RV(capCPU, capCPU*2048, 0, 0)},
		Power:    types.PowerOn,
		Used:     types.RV(resCPU, resCPU*2048, 0, 0),
		Reserved: types.RV(resCPU, resCPU*2048, 0, 0),
	}}
}

func vmSpec(cpu float64) types.VMSpec {
	return types.VMSpec{ID: "vm", Requested: types.RV(cpu, cpu*1024, 0, 0)}
}

func TestRoundRobinDispatchCycles(t *testing.T) {
	p := &RoundRobinDispatch{}
	sums := []view.Group{gm("gm1", 0, 16, 2), gm("gm2", 0, 16, 2), gm("gm3", 0, 16, 2)}
	vm := vmSpec(1)
	first := p.Candidates(vm, sums, nil)
	second := p.Candidates(vm, sums, nil)
	third := p.Candidates(vm, sums, nil)
	if first[0] != "gm1" || second[0] != "gm2" || third[0] != "gm3" {
		t.Fatalf("heads: %v %v %v", first[0], second[0], third[0])
	}
	if len(first) != 3 {
		t.Fatalf("all feasible GMs should be listed: %v", first)
	}
	fourth := p.Candidates(vm, sums, nil)
	if fourth[0] != "gm1" {
		t.Fatalf("wrap-around: %v", fourth[0])
	}
}

func TestDispatchFiltersInfeasible(t *testing.T) {
	sums := []view.Group{
		gm("full", 16, 16, 2),
		gm("empty-lcs", 0, 16, 0), // no LCs at all
		gm("roomy", 2, 16, 2),
	}
	vm := vmSpec(4)
	for _, p := range []DispatchPolicy{&RoundRobinDispatch{}, LeastLoadedDispatch{}, MostLoadedDispatch{}} {
		got := p.Candidates(vm, sums, nil)
		if len(got) != 1 || got[0] != "roomy" {
			t.Errorf("%s: %v", p.Name(), got)
		}
	}
}

func TestDispatchCountsAsleepLCs(t *testing.T) {
	// A GM whose LCs are all asleep still has wakeable capacity.
	s := gm("sleepy", 0, 16, 0)
	s.AsleepLCs = 2
	got := LeastLoadedDispatch{}.Candidates(vmSpec(1), []view.Group{s}, nil)
	if len(got) != 1 {
		t.Fatalf("asleep capacity ignored: %v", got)
	}
}

func TestLeastLoadedDispatchOrder(t *testing.T) {
	sums := []view.Group{gm("busy", 12, 16, 2), gm("idle", 0, 16, 2), gm("half", 8, 16, 2)}
	got := LeastLoadedDispatch{}.Candidates(vmSpec(1), sums, nil)
	if len(got) != 3 || got[0] != "idle" || got[1] != "half" || got[2] != "busy" {
		t.Fatalf("order: %v", got)
	}
}

func TestMostLoadedDispatchOrder(t *testing.T) {
	sums := []view.Group{gm("busy", 12, 16, 2), gm("idle", 0, 16, 2), gm("half", 8, 16, 2)}
	got := MostLoadedDispatch{}.Candidates(vmSpec(1), sums, nil)
	if len(got) != 3 || got[0] != "busy" || got[2] != "idle" {
		t.Fatalf("order: %v", got)
	}
}

func TestFirstFit(t *testing.T) {
	nodes := []view.Node{node("n3", 0, 8), node("n1", 7, 8), node("n2", 0, 8)}
	id, ok := FirstFit{}.Place(vmSpec(2), nodes, nil)
	if !ok || id != "n2" {
		t.Fatalf("first-fit: %v %v", id, ok)
	}
	// Nothing fits.
	if _, ok := (FirstFit{}).Place(vmSpec(100), nodes, nil); ok {
		t.Fatal("oversized VM placed")
	}
}

func TestPlacementSkipsUnavailableNodes(t *testing.T) {
	off := node("n1", 0, 8)
	off.Power = types.PowerSuspended
	nodes := []view.Node{off, node("n2", 0, 8)}
	for _, p := range []PlacementPolicy{FirstFit{}, BestFit{}, WorstFit{}, &RoundRobinPlacement{}} {
		id, ok := p.Place(vmSpec(1), nodes, nil)
		if !ok || id != "n2" {
			t.Errorf("%s chose %v (ok=%v)", p.Name(), id, ok)
		}
	}
}

func TestBestFitTightest(t *testing.T) {
	nodes := []view.Node{node("n1", 1, 8), node("n2", 5, 8), node("n3", 7, 8)}
	id, ok := BestFit{}.Place(vmSpec(1), nodes, nil)
	if !ok || id != "n3" {
		t.Fatalf("best-fit: %v", id)
	}
}

func TestWorstFitEmptiest(t *testing.T) {
	nodes := []view.Node{node("n1", 1, 8), node("n2", 5, 8), node("n3", 7, 8)}
	id, ok := WorstFit{}.Place(vmSpec(1), nodes, nil)
	if !ok || id != "n1" {
		t.Fatalf("worst-fit: %v", id)
	}
}

func TestRoundRobinPlacementCycles(t *testing.T) {
	p := &RoundRobinPlacement{}
	nodes := []view.Node{node("n1", 0, 8), node("n2", 0, 8), node("n3", 0, 8)}
	a, _ := p.Place(vmSpec(1), nodes, nil)
	b, _ := p.Place(vmSpec(1), nodes, nil)
	c, _ := p.Place(vmSpec(1), nodes, nil)
	d, _ := p.Place(vmSpec(1), nodes, nil)
	if a != "n1" || b != "n2" || c != "n3" || d != "n1" {
		t.Fatalf("cycle: %v %v %v %v", a, b, c, d)
	}
	// Skips full nodes.
	nodes[0] = node("n1", 8, 8)
	e, ok := p.Place(vmSpec(1), nodes, nil)
	if !ok || e == "n1" {
		t.Fatalf("rr skipped full node: %v %v", e, ok)
	}
}

func vmStatus(id string, cpu float64, state types.VMState) types.VMStatus {
	return types.VMStatus{
		Spec:  types.VMSpec{ID: types.VMID(id), Requested: types.RV(cpu, cpu*1024, 0, 0)},
		State: state,
		Used:  types.RV(cpu, cpu*1024, 0, 0),
	}
}

func TestOverloadRelocationMovesEnough(t *testing.T) {
	src := node("hot", 8, 8)
	src.VMs = []types.VMID{"a", "b", "c"}
	vms := []types.VMStatus{
		vmStatus("a", 4, types.VMRunning),
		vmStatus("b", 2, types.VMRunning),
		vmStatus("c", 2, types.VMRunning),
	}
	others := []view.Node{node("cool", 1, 8), node("warm", 4, 8)}
	moves := OverloadRelocation{}.Relocate(src, vms, others, nil)
	if len(moves) == 0 {
		t.Fatal("no moves for overloaded node")
	}
	// Largest VM first, to the least loaded receiver.
	if moves[0].VM != "a" || moves[0].To != "cool" {
		t.Fatalf("first move: %+v", moves[0])
	}
	// Moving "a" (4 CPU) brings the node to 4/8 = 50% <= 90%: one move is
	// enough.
	if len(moves) != 1 {
		t.Fatalf("moves: %+v", moves)
	}
}

func TestOverloadRelocationRespectsReceiverThreshold(t *testing.T) {
	src := node("hot", 8, 8)
	vms := []types.VMStatus{vmStatus("a", 4, types.VMRunning)}
	// Receiver has room by reservation but would exceed 90% measured.
	crowded := node("crowded", 5, 8)
	moves := OverloadRelocation{}.Relocate(src, vms, []view.Node{crowded}, nil)
	if len(moves) != 0 {
		t.Fatalf("moved into a would-be-overloaded receiver: %+v", moves)
	}
}

func TestOverloadRelocationSkipsNonRunning(t *testing.T) {
	src := node("hot", 8, 8)
	vms := []types.VMStatus{vmStatus("a", 6, types.VMMigrating), vmStatus("b", 1, types.VMRunning)}
	others := []view.Node{node("cool", 0, 8)}
	moves := OverloadRelocation{}.Relocate(src, vms, others, nil)
	for _, m := range moves {
		if m.VM == "a" {
			t.Fatal("migrating VM selected for relocation")
		}
	}
}

func TestUnderloadRelocationDrainsFully(t *testing.T) {
	src := node("cold", 1, 8)
	src.VMs = []types.VMID{"a", "b"}
	vms := []types.VMStatus{vmStatus("a", 0.5, types.VMRunning), vmStatus("b", 0.5, types.VMRunning)}
	others := []view.Node{node("mid", 4, 8), node("empty", 0, 8)}
	moves := UnderloadRelocation{}.Relocate(src, vms, others, nil)
	if len(moves) != 2 {
		t.Fatalf("moves: %+v", moves)
	}
	// Prefers the moderately loaded receiver over the empty one.
	for _, m := range moves {
		if m.To != "mid" {
			t.Fatalf("move went to %s, want mid", m.To)
		}
	}
}

func TestUnderloadRelocationAllOrNothing(t *testing.T) {
	src := node("cold", 1, 8)
	vms := []types.VMStatus{vmStatus("a", 0.5, types.VMRunning), vmStatus("big", 6, types.VMRunning)}
	// Receiver can hold "a" but not "big".
	others := []view.Node{node("mid", 4, 8)}
	moves := UnderloadRelocation{}.Relocate(src, vms, others, nil)
	if moves != nil {
		t.Fatalf("partial drain returned: %+v", moves)
	}
}

func TestUnderloadRelocationRefusesBootingVM(t *testing.T) {
	src := node("cold", 1, 8)
	vms := []types.VMStatus{vmStatus("a", 0.5, types.VMBooting)}
	others := []view.Node{node("mid", 0, 8)}
	if moves := (UnderloadRelocation{}).Relocate(src, vms, others, nil); moves != nil {
		t.Fatalf("drained a booting VM: %+v", moves)
	}
}

func TestRelocationExcludesSourceAndInactive(t *testing.T) {
	src := node("hot", 8, 8)
	vms := []types.VMStatus{vmStatus("a", 4, types.VMRunning)}
	susp := node("susp", 0, 8)
	susp.Power = types.PowerSuspended
	others := []view.Node{src, susp}
	if moves := (OverloadRelocation{}).Relocate(src, vms, others, nil); len(moves) != 0 {
		t.Fatalf("relocated to source/suspended node: %+v", moves)
	}
}

func TestPolicyRegistries(t *testing.T) {
	for _, n := range []string{"round-robin", "least-loaded", "most-loaded", ""} {
		if p, err := NewDispatchPolicy(n); err != nil || p == nil {
			t.Errorf("dispatch %q: %v", n, err)
		}
	}
	if _, err := NewDispatchPolicy("bogus"); err == nil {
		t.Error("bogus dispatch accepted")
	}
	for _, n := range []string{"first-fit", "best-fit", "worst-fit", "round-robin", ""} {
		if p, err := NewPlacementPolicy(n); err != nil || p == nil {
			t.Errorf("placement %q: %v", n, err)
		}
	}
	if _, err := NewPlacementPolicy("bogus"); err == nil {
		t.Error("bogus placement accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, n := range []string{
		(&RoundRobinDispatch{}).Name(), LeastLoadedDispatch{}.Name(), MostLoadedDispatch{}.Name(),
		FirstFit{}.Name(), BestFit{}.Name(), WorstFit{}.Name(), (&RoundRobinPlacement{}).Name(),
		OverloadRelocation{}.Name(), UnderloadRelocation{}.Name(),
	} {
		if n == "" {
			t.Fatal("empty policy name")
		}
		names[n] = true
	}
	if len(names) < 8 { // round-robin appears twice (dispatch+placement)
		t.Fatalf("names not distinct enough: %v", names)
	}
}

// TestSortedByIDSharesSortedInput pins the placement fast path: nodes the GM
// offers in ID order are iterated in place, with no copy and no allocation;
// any other order is sorted into a copy and the caller's slice is untouched.
func TestSortedByIDSharesSortedInput(t *testing.T) {
	sorted := []view.Node{node("n1", 0, 8), node("n2", 0, 8), node("n3", 0, 8)}
	if allocs := testing.AllocsPerRun(100, func() { sortedByID(sorted) }); allocs != 0 {
		t.Fatalf("sorted input: %v allocs, want 0", allocs)
	}
	if got := sortedByID(sorted); &got[0] != &sorted[0] {
		t.Fatal("sorted input was copied")
	}
	shuffled := []view.Node{node("n3", 0, 8), node("n1", 0, 8), node("n2", 0, 8)}
	got := sortedByID(shuffled)
	for i, want := range []types.NodeID{"n1", "n2", "n3"} {
		if got[i].Spec.ID != want {
			t.Fatalf("sorted copy %d: %s, want %s", i, got[i].Spec.ID, want)
		}
	}
	if shuffled[0].Spec.ID != "n3" {
		t.Fatal("unsorted input was reordered in place")
	}
}

// TestRoundRobinDispatchAllocatesOnce pins the dispatch fast path: groups the
// GL offers in GM order are walked in place, and the candidate list is the
// call's only allocation.
func TestRoundRobinDispatchAllocatesOnce(t *testing.T) {
	p := &RoundRobinDispatch{}
	groups := []view.Group{gm("gm1", 0, 16, 2), gm("gm2", 0, 16, 2), gm("gm3", 16, 16, 2)}
	vm := vmSpec(1)
	if allocs := testing.AllocsPerRun(100, func() { p.Candidates(vm, groups, nil) }); allocs != 1 {
		t.Fatalf("sorted groups: %v allocs, want 1", allocs)
	}
	if got := sortedByGM(groups); &got[0] != &groups[0] {
		t.Fatal("sorted groups were copied")
	}
}

// roundRobinReference is RoundRobinDispatch as it was before groups could be
// walked in place: always a sorted copy, and a list grown by append.
type roundRobinReference struct{ next int }

func (r *roundRobinReference) candidates(vm types.VMSpec, groups []view.Group) []types.GroupManagerID {
	sorted := append([]view.Group(nil), groups...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].GM < sorted[j].GM })
	n := len(sorted)
	var out []types.GroupManagerID
	for i := 0; i < n; i++ {
		if g := sorted[(r.next+i)%n]; feasible(vm, g) {
			out = append(out, g.GM)
		}
	}
	if n > 0 {
		r.next = (r.next + 1) % n
	}
	return out
}

// TestRoundRobinDispatchUnsortedInput checks that any input order gives the
// order and rotation of the sorted walk, and leaves the caller's slice as
// it was.
func TestRoundRobinDispatchUnsortedInput(t *testing.T) {
	shuffled := []view.Group{
		gm("gm4", 0, 16, 2), gm("gm1", 16, 16, 2), gm("gm3", 0, 16, 2),
		gm("gm0", 0, 16, 0), gm("gm2", 4, 16, 2),
	}
	p, ref := &RoundRobinDispatch{}, &roundRobinReference{}
	vm := vmSpec(2)
	for call := 0; call < 2*len(shuffled)+1; call++ {
		got, want := p.Candidates(vm, shuffled, nil), ref.candidates(vm, shuffled)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("call %d: %v, want %v", call, got, want)
		}
	}
	if shuffled[0].GM != "gm4" || shuffled[3].GM != "gm0" {
		t.Fatal("unsorted input was reordered in place")
	}
}

func BenchmarkDispatchCandidates(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			groups := make([]view.Group, n)
			for i := range groups {
				groups[i] = gm(fmt.Sprintf("gm-%02d", i), float64(i), 64, 8)
			}
			p := &RoundRobinDispatch{}
			vm := vmSpec(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Candidates(vm, groups, nil)
			}
		})
	}
}
