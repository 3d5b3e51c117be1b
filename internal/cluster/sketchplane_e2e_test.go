package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"snooze/internal/hierarchy"
	"snooze/internal/telemetry"
	"snooze/internal/telemetry/sketch"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// TestSummaryCarriesMergedUtilSketch pins the GM→GL sketch rollup: every
// summary push carries the merged quantile sketch of the group's member
// node-util series, and the GL adopts it onto the gm/<id> rollup series — so
// group-level quantiles answer over the members' actual utilization
// distribution, with the error bound attached, instead of over the rollup's
// series of group averages.
func TestSummaryCarriesMergedUtilSketch(t *testing.T) {
	cfg := DefaultConfig(workload.Grid5000Topology(24, 3), 5)
	c := New(cfg)
	c.Settle(30 * time.Second)
	var vms []types.VMSpec
	for i := 0; i < 24; i++ {
		vms = append(vms, vmSpec(fmt.Sprintf("s%d", i), 1, 2048))
	}
	if resp, err := c.SubmitAndWait(vms, 2*time.Minute); err != nil || len(resp.Placed) != 24 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	c.Settle(30 * time.Second)

	if got := c.Metrics.Count("gl.summary-sketch-adoptions"); got == 0 {
		t.Fatal("GL adopted no summary sketches")
	}
	store := c.Telemetry.Store()
	topo, err := c.TopologyAndWait(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, gm := range topo.GMs {
		if gm.Summary.ActiveLCs == 0 {
			continue
		}
		// Per-GM scheduling info rides the same pushes as the sketch.
		if gm.Scheduling == nil || gm.Scheduling.Placement == "" {
			t.Fatalf("GM %s reported no scheduling info: %+v", gm.GM, gm.Scheduling)
		}
		entity := telemetry.GMEntity(gm.GM)
		enc, ok := store.SeriesSketch(entity, "util")
		if !ok || enc.Total == 0 {
			t.Fatalf("GM %s rollup series has no adopted sketch", gm.GM)
		}
		spec := &telemetry.SummarySpec{Percentiles: []float64{50, 95}}
		sum, ok := store.Reduce(entity, "util", 0, 0, spec)
		if !ok {
			t.Fatalf("GM %s rollup reduce failed", gm.GM)
		}
		if sum.QuantileError <= 0 {
			t.Fatalf("GM %s quantiles carry no error bound: %+v", gm.GM, sum)
		}
		// The adopted distribution must agree with a hand-merge of the
		// member sketches done now — the adopted copy is at most one summary
		// period staler, so each member contributed a couple fewer samples.
		adopted := sketch.Decode(enc)
		hand := sketch.New(store.SketchAlpha())
		for id, lc := range c.LCs {
			if string(lc.GM()) != gm.Addr {
				continue
			}
			if e, ok := store.SeriesSketch(telemetry.NodeEntity(id), "util"); ok {
				hand.Merge(sketch.Decode(e))
			}
		}
		if hand.Count() == 0 {
			t.Fatalf("GM %s: no member util sketches to merge", gm.GM)
		}
		for _, q := range []float64{50, 95} {
			a, h := adopted.Quantile(q), hand.Quantile(q)
			if math.Abs(a-h) > 3*adopted.Alpha()*math.Max(h, 0.05)+0.02 {
				t.Fatalf("GM %s p%.0f: adopted %v vs hand-merged %v", gm.GM, q, a, h)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no GM with members checked")
	}
}

// TestGMCrashRestoresSketchQuantiles extends warm failover to the statistics
// plane: with a tiny raw ring and no retention tiers, an orphaned node's
// utilization history survives a GM crash ONLY inside the lifetime sketch
// and moments of its series on the shared hub — the raw ring holds 8 samples
// and everything older was evicted outright. The adopting survivor must
// answer honest truncated lifetime statistics (Weight beyond anything the
// raw ring could hold, quantiles with the error bound attached) that bracket
// the victim's own at-crash distribution.
func TestGMCrashRestoresSketchQuantiles(t *testing.T) {
	top := workload.Grid5000Topology(12, 3)
	cfg := DefaultConfig(top, 77)
	cfg.Retention = telemetry.StoreConfig{SeriesCapacity: 8, Tiers: telemetry.NoTiers}
	c := New(cfg)
	c.Settle(30 * time.Second)

	var vms []types.VMSpec
	for i := 0; i < 12; i++ {
		vms = append(vms, vmSpec(fmt.Sprintf("q%d", i), 1, 2048))
	}
	if resp, err := c.SubmitAndWait(vms, 2*time.Minute); err != nil || len(resp.Placed) != 12 {
		t.Fatalf("submit: %+v %v", resp, err)
	}
	// Long enough that every node series has evicted well past its 8-slot
	// ring, so lifetime distributions exist only in the sketches.
	c.Settle(40 * time.Second)

	gms := c.GroupManagers()
	sort.Slice(gms, func(i, j int) bool { return gms[i].ID() < gms[j].ID() })
	if len(gms) < 2 {
		t.Fatalf("need >=2 GMs, have %d", len(gms))
	}
	victim := gms[0]
	var orphans []types.NodeID
	for id, lc := range c.LCs {
		if lc.GM() == victim.Addr() {
			orphans = append(orphans, id)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	if len(orphans) == 0 {
		t.Fatal("victim GM manages no LCs")
	}

	// The victim's own at-crash lifetime statistics, per orphan.
	type ref struct {
		weight   uint64
		min, max float64
	}
	spec := &telemetry.SummarySpec{Percentiles: []float64{50, 95}}
	before := map[types.NodeID]ref{}
	for _, id := range orphans {
		if sum, ok := victim.Telemetry().Store().Reduce(telemetry.NodeEntity(id), "util", 0, 0, spec); ok {
			before[id] = ref{weight: sum.Weight, min: sum.Min, max: sum.Max}
		}
	}
	victim.Crash()
	c.Settle(16 * time.Second)

	survivors := map[string]*hierarchy.Manager{}
	for _, m := range c.GroupManagers() {
		if m != victim {
			survivors[string(m.Addr())] = m
		}
	}
	recovered := 0
	for _, id := range orphans {
		adopter, ok := survivors[string(c.LCs[id].GM())]
		if !ok {
			t.Fatalf("orphan %s not re-assigned to a survivor", id)
		}
		want, ok := before[id]
		if !ok || want.weight <= 8 {
			continue // no evicted history to prove carriage with
		}
		sum, ok := adopter.Telemetry().Store().Reduce(telemetry.NodeEntity(id), "util", 0, 0, spec)
		if !ok {
			t.Fatalf("orphan %s: adopter has no util series", id)
		}
		// Weight beyond the 8-slot ring is only reachable via the lifetime
		// sketch/moments: the raw window cannot account for it.
		if sum.Weight+2 < want.weight {
			t.Fatalf("orphan %s: adopted weight %d lost history (victim had %d)", id, sum.Weight, want.weight)
		}
		if !sum.Truncated {
			t.Fatalf("orphan %s: truncation not reported on evicted history", id)
		}
		if sum.QuantileError <= 0 {
			t.Fatalf("orphan %s: adopted quantiles carry no error bound", id)
		}
		a := sum.QuantileError
		for i, q := range spec.Percentiles {
			v := sum.Percentiles[i]
			if v < want.min*(1-a)-1e-9 || v > want.max*(1+a)+1e-9 {
				t.Fatalf("orphan %s p%.0f = %v outside victim's lifetime range [%v, %v]", id, q, v, want.min, want.max)
			}
		}
		recovered++
	}
	if recovered == 0 {
		t.Fatal("no orphan with evicted history was verified across the failover")
	}
}
