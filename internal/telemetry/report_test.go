package telemetry

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"snooze/internal/types"
)

// report builds one monitor report of node listing vms, with usage that
// varies with both the VM and tick.
func report(node string, tick int, vms ...string) (types.NodeStatus, []types.VMStatus) {
	st := types.NodeStatus{Spec: types.NodeSpec{ID: types.NodeID(node), Capacity: types.RV(16, 65536, 1000, 1000)}}
	out := make([]types.VMStatus, len(vms))
	for i, id := range vms {
		f := float64((tick+i)%7) / 8
		used := types.RV(2*f, 1024*f, 10*f, 5*f)
		out[i] = types.VMStatus{Spec: types.VMSpec{ID: types.VMID(id)}, State: types.VMRunning, Node: st.Spec.ID, Used: used}
		st.VMs = append(st.VMs, types.VMID(id))
		st.Used = st.Used.Add(used)
	}
	return st, out
}

// ingestPerSample is report ingest without RecordReport: the node's four
// Appends, then per VM its entity, four Appends and a Claim.
func ingestPerSample(h *Hub, at time.Duration, st types.NodeStatus, vms []types.VMStatus, owner string) {
	node := NodeEntity(st.Spec.ID)
	h.Record(node, "cpu.used", at, st.Used.CPU)
	h.Record(node, "mem.used", at, st.Used.Memory)
	h.Record(node, "util", at, st.Used.Divide(st.Spec.Capacity).NormInf())
	h.Record(node, "vms", at, float64(len(st.VMs)))
	for _, vm := range vms {
		entity := VMEntity(vm.Spec.ID)
		h.Record(entity, "cpu.used", at, vm.Used.CPU)
		h.Record(entity, "mem.used", at, vm.Used.Memory)
		h.Record(entity, "net.rx", at, vm.Used.NetRx)
		h.Record(entity, "net.tx", at, vm.Used.NetTx)
		h.Claim(entity, owner)
	}
}

// TestRecordReportMatchesPerEntity: RecordReport leaves the series, sample
// count, generations and owner stamps that RecordNode, then RecordVM and Claim
// per VM, leave, and that four Appends per entity leave, report after report:
// VMs arrive and leave, one moves to a node fed by another GM, which takes
// its stamp, and a stamp changes in the middle of a report.
func TestRecordReportMatchesPerEntity(t *testing.T) {
	type rep struct {
		node, owner string
		vms         []string
	}
	reports := []rep{
		{"n1", "gm-a", []string{"v1", "v2", "v3"}},
		{"n2", "gm-b", []string{"v4"}},
		{"n1", "gm-a", []string{"v1", "v2", "v3", "v5"}},
		{"n2", "gm-b", []string{"v4", "v2"}}, // v2 moves to gm-b's node
		{"n1", "gm-a", []string{"v1", "v3", "v5"}},
		{"n3", "gm-a", nil},                        // an idle node
		{"n2", "gm-a", []string{"v4", "v2", "v6"}}, // n2 rejoins gm-a
		{"n1", "gm-a", []string{"v5", "v1", "v3"}}, // another order
	}
	newHub := func() *Hub { return NewHub(Options{Store: StoreConfig{SeriesCapacity: 4, Tiers: tiersSmall(2, 2)}}) }
	per, byRecord, byReport := newHub(), newHub(), newHub()
	seen := map[string]bool{}
	for tick := 0; tick < 5; tick++ {
		for i, r := range reports {
			at := sec(10*tick + i)
			st, vms := report(r.node, tick, r.vms...)
			ingestPerSample(per, at, st, vms, r.owner)
			byRecord.RecordNode(at, st)
			for _, vm := range vms {
				byRecord.RecordVM(at, vm)
				byRecord.Claim(VMEntity(vm.Spec.ID), r.owner)
			}
			before := byReport.Store().Keys()
			gens := map[Key]uint64{}
			for _, k := range before {
				gens[k] = byReport.Store().Generation(k.Entity, k.Metric)
			}
			byReport.RecordReport(at, st, vms, r.owner)

			// Every series the report appended to has a new generation.
			appended := []string{NodeEntity(st.Spec.ID)}
			for _, vm := range vms {
				appended = append(appended, VMEntity(vm.Spec.ID))
				seen[VMEntity(vm.Spec.ID)] = true
			}
			for _, k := range byReport.Store().Keys() {
				if slices.Contains(appended, k.Entity) && byReport.Store().Generation(k.Entity, k.Metric) <= gens[k] {
					t.Fatalf("tick %d report %d: %v kept generation %d", tick, i, k, gens[k])
				}
			}
			for name, h := range map[string]*Hub{"RecordNode/RecordVM/Claim": byRecord, "RecordReport": byReport} {
				sameHubs(t, fmt.Sprintf("tick %d report %d: %s", tick, i, name), per, h, seen)
			}
		}
	}
	if owner, _ := byReport.Owner(VMEntity("v2")); owner != "gm-a" {
		t.Fatalf("v2 stamped %q, want gm-a", owner)
	}
}

// sameHubs fails unless want and got hold the same series with the same
// points and generations, the same sample count, distinct generations, and
// the same owner stamps on entities.
func sameHubs(t *testing.T, what string, want, got *Hub, entities map[string]bool) {
	t.Helper()
	ws, gs := want.Store(), got.Store()
	keys := ws.Keys()
	if gk := gs.Keys(); !slices.Equal(keys, gk) {
		t.Fatalf("%s: keys %v, want %v", what, gk, keys)
	}
	if ws.TotalSamples() != gs.TotalSamples() {
		t.Fatalf("%s: %d samples, want %d", what, gs.TotalSamples(), ws.TotalSamples())
	}
	gens := map[uint64]Key{}
	for _, k := range keys {
		if w, g := ws.Query(k.Entity, k.Metric, 0, 0), gs.Query(k.Entity, k.Metric, 0, 0); !slices.Equal(w, g) {
			t.Fatalf("%s: %v holds %v, want %v", what, k, g, w)
		}
		wg, gg := ws.Generation(k.Entity, k.Metric), gs.Generation(k.Entity, k.Metric)
		if wg != gg {
			t.Fatalf("%s: %v generation %d, want %d", what, k, gg, wg)
		}
		if other, dup := gens[gg]; dup {
			t.Fatalf("%s: %v and %v share generation %d", what, k, other, gg)
		}
		gens[gg] = k
	}
	for e := range entities {
		wo, wok := want.Owner(e)
		if gotOwner, gok := got.Owner(e); gotOwner != wo || gok != wok {
			t.Fatalf("%s: %s stamped %q (%v), want %q (%v)", what, e, gotOwner, gok, wo, wok)
		}
	}
}

// report16 is a 16-VM report of node n000, the shape of monitor_storm.
func report16(tick int) (types.NodeStatus, []types.VMStatus) {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("n000-vm%03d", i)
	}
	return report("n000", tick, ids...)
}

// TestRecordReportAllocs: once the rings and tiers of a report's entities
// have grown, ingesting a 16-VM report allocates nothing.
func TestRecordReportAllocs(t *testing.T) {
	h := NewHub(Options{Store: StoreConfig{SeriesCapacity: 8, Tiers: tiersSmall(4, 4)}})
	st, vms := report16(0)
	tick := 0
	ingest := func() {
		tick++
		h.RecordReport(sec(tick), st, vms, "gm-00")
	}
	for i := 0; i < 64; i++ {
		ingest()
	}
	if allocs := testing.AllocsPerRun(200, ingest); allocs != 0 {
		t.Fatalf("a steady-state 16-VM report allocates %v times, want 0", allocs)
	}
}

// BenchmarkIngestReport16 measures the GM's ingest of one 16-VM monitor
// report into a warm hub: the node's and the VMs' series and the VMs' owner
// stamps. path=append4 is four Appends per entity and a Claim per VM;
// path=report is RecordReport. Ring and tier growth are paid before the
// timer starts.
func BenchmarkIngestReport16(b *testing.B) {
	for _, path := range []struct {
		name   string
		ingest func(h *Hub, at time.Duration, st types.NodeStatus, vms []types.VMStatus, owner string)
	}{
		{"append4", ingestPerSample},
		{"report", (*Hub).RecordReport},
	} {
		b.Run("path="+path.name, func(b *testing.B) {
			h := NewHub(Options{})
			st, vms := report16(0)
			for i := 0; i < 4096; i++ {
				path.ingest(h, time.Duration(i)*100*time.Millisecond, st, vms, "gm-00")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path.ingest(h, time.Duration(4096+i)*100*time.Millisecond, st, vms, "gm-00")
			}
		})
	}
}
