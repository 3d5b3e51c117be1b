package main

// workloads.go defines the four named workloads and runs one of them:
// set-up, preload, warm-up, measured window cut into sub-windows, oracle.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/internal/protocol"
	"snooze/internal/telemetry"
)

// workloadSpec is one named workload: a deployment shape and the open-loop
// request streams offered to it. Every workload carries a submit stream, so
// that each end-to-end metric is defined, and gated, on each workload.
type workloadSpec struct {
	Name string
	Why  string

	Hosts, LCsPerHost int           // LCs behind the rest hop
	LocalLCs          int           // LCs co-hosted on the control bus
	Monitor           time.Duration // LC monitor period
	Population        int           // live VMs, held by retiring the oldest
	// Tiny selects flavours so small that the GM's optimistic reservations
	// never reach capacity whatever the placement rate; otherwise flavours
	// load each node to ≈40 % so that neither anomaly detector fires.
	Tiny bool

	SubmitRate float64 // POST /v1/vms per second
	Batch      int     // VMs per submission
	Poisson    bool    // submissions are the load (Poisson arrivals) rather than a sampling probe
	CycleRate  float64 // read cycles per second: every kind of readCycle at this rate
}

var workloads = []workloadSpec{
	{
		Name:  "submit_steady",
		Why:   "400 single-VM POST /v1/vms per second (Poisson) over 4x8 LCs behind HTTP: every placement crosses api and rest/protocol",
		Hosts: 4, LCsPerHost: 8, Monitor: time.Second, Population: 2000,
		SubmitRate: 400, Batch: 1, Poisson: true,
	},
	{
		Name:     "burst_local",
		Why:      "50 64-VM batches per second (Poisson) over 128 co-hosted LCs: no rest hop, hierarchy/view/obs/transport do the work; a codec change must not show",
		LocalLCs: 128, Monitor: 3 * time.Second, Population: 2048, Tiny: true,
		SubmitRate: 50, Batch: 64, Poisson: true,
	},
	{
		Name:  "monitor_storm",
		Why:   "8x8 LCs with 16 VMs each reporting every 100 ms (640 reports/s) beside a 50/s submit probe: monitoring ingest dominates, the probe shows starvation",
		Hosts: 8, LCsPerHost: 8, Monitor: 100 * time.Millisecond, Population: 1024,
		SubmitRate: 50, Batch: 1,
	},
	{
		Name:  "read_mix",
		Why:   "30 read cycles per second (ListVMs, ListNodes, deep Topology, QuerySeries, GetVM) beside 30 submits/s over 2048 VMs: the read side of the same layers",
		Hosts: 4, LCsPerHost: 8, Monitor: time.Second, Population: 2048,
		SubmitRate: 50, Batch: 1, CycleRate: 20,
	},
}

// smokeSized shrinks a workload for -smoke and the tier-1 test.
func (w workloadSpec) smokeSized() workloadSpec {
	if w.Hosts > 0 {
		w.Hosts, w.LCsPerHost = 2, 4
	}
	if w.LocalLCs > 0 {
		w.LocalLCs = 8
	}
	w.Population = 48
	w.Batch = min(w.Batch, 8)
	w.SubmitRate = min(w.SubmitRate, 40)
	w.Monitor = min(w.Monitor, 200*time.Millisecond)
	return w
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// flavour draws one VM size.
func (w workloadSpec) flavour(rng *rand.Rand, lcs int) apiv1.Resources {
	if w.Tiny {
		return apiv1.Resources{CPU: 0.01 + 0.03*rng.Float64(), MemoryMB: 16 + 48*rng.Float64()}
	}
	perNode := float64(w.Population) / float64(lcs)
	return apiv1.Resources{
		CPU:      nodeCPU * 0.4 / perNode * (0.6 + 0.8*rng.Float64()),
		MemoryMB: nodeMemMB * 0.3 / perNode * (0.6 + 0.8*rng.Float64()),
	}
}

// runOptions parameterizes one run of one workload.
type runOptions struct {
	Seed      int64
	Window    time.Duration // measured window
	Warm      time.Duration // discarded warm-up before it
	Setups    int           // deployments built for setup_s; the last one carries the run
	Traced    bool          // harness spans on during the window; per-layer metrics reported
	TracePath string        // where a traced run writes its spans ("" = nowhere)
	Smoke     bool
}

// runResult is what one run reports.
type runResult struct {
	Workload   string
	Attempted  int
	Failed     int
	Violations []string
	E2E        map[string]float64
	Layer      map[string]float64
	Budget     *budget
	failedBy   [opKinds]int
	lateP99    float64 // ms the generator itself started requests late, at p99
	backlogP99 float64 // ms requests started after their due time, busy workers included, at p99
}

func (r *runResult) correct() bool { return len(r.Violations) == 0 }

// snapshot is the counter state at one edge of the measured window.
type snapshot struct {
	wall       time.Duration // since load start
	rt         time.Duration // control runtime clock (telemetry timestamps)
	cpu        float64
	mallocs    uint64
	placed     int64
	reads      int64
	samples    uint64
	delivered  uint64
	dropped    uint64
	gcPauseNs  uint64
	goroutines int
}

func takeSnapshot(d *deployment, g *loadgen) snapshot {
	mem := memSnapshot()
	s := snapshot{
		wall:       time.Since(g.start),
		rt:         d.rt.Now(),
		cpu:        cpuSeconds(),
		mallocs:    mem.Mallocs,
		placed:     g.placed.Load(),
		reads:      g.reads.Load(),
		samples:    d.hub.Store().TotalSamples(),
		gcPauseNs:  mem.PauseTotalNs,
		goroutines: runtime.NumGoroutine(),
	}
	for _, b := range d.buses() {
		del, drop := b.Stats()
		s.delivered += del
		s.dropped += drop
	}
	return s
}

// runWorkload performs one complete run.
func runWorkload(w workloadSpec, opt runOptions) (*runResult, error) {
	if opt.Smoke {
		w = w.smokeSized()
	}
	cfg := deployConfig{Hosts: w.Hosts, LCsPerHost: w.LCsPerHost, LocalLCs: w.LocalLCs, Monitor: w.Monitor}
	var trace *harnessTrace
	if opt.Traced {
		trace = newHarnessTrace()
		cfg.Trace = trace
	}

	// Set-up, several times; the median is reported and the last one is used.
	var d *deployment
	var setups []float64
	for i := 0; i < max(opt.Setups, 1); i++ {
		if d != nil {
			d.Close()
		}
		var err error
		if d, err = deploy(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.Close()
	placeable, err := d.awaitPlaceable()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	g := &loadgen{
		d: d, w: w, trace: trace,
		pop: &population{nodes: d.nodes, limit: w.Population},
		end: opt.Warm + opt.Window,
	}
	if err := g.preload(rng, w.Population); err != nil {
		return nil, err
	}
	g.schedule = buildSchedule(w, rng, g.end)
	g.start = time.Now()

	// Run the load; snapshot the counters at both edges of the window.
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		g.run(opt.Seed)
	}()
	// A collection forced at a fixed point of the warm-up puts every run's GC
	// cycles at the same offsets of the window; left alone, whether two or
	// three of them land in it moves the CPU figures by several per cent.
	sleepUntil := func(at time.Duration) {
		if wait := at - time.Since(g.start); wait > 0 {
			time.Sleep(wait)
		}
	}
	sleepUntil(opt.Warm * 2 / 3)
	runtime.GC()
	sleepUntil(opt.Warm)
	regBefore := counterSnapshot(d)
	var harvest *harvester
	if trace != nil {
		trace.on.Store(true)
		harvest = startHarvester(d.tracer, trace, trace.now()-d.rt.Now())
	}
	first := takeSnapshot(d, g)
	ref := startReference()
	sleepUntil(opt.Warm + opt.Window)
	refUs := ref.stop()
	last := takeSnapshot(d, g)
	if trace != nil {
		trace.on.Store(false)
	}
	<-loadDone
	if harvest != nil {
		harvest.Stop()
	}
	regAfter := counterSnapshot(d)

	res := &runResult{Workload: w.Name, E2E: map[string]float64{}}
	res.Violations = checkOracle(d, g, w, first, last)
	res.measure(d, g, opt, first, last, median(setups), refUs)
	if res.lateP99 > lateLimitMs && !opt.Smoke {
		res.Violations = append(res.Violations, fmt.Sprintf("the load generator started requests %.1f ms late at p99 (limit %.0f ms): the run does not measure the offered load", res.lateP99, lateLimitMs))
	}
	// At smoke size a GM has four LCs, and the relocation attempts set off
	// while the population ramps up can mark all of them busy at once; a few
	// unplaced VMs there say nothing about the wiring the smoke run checks.
	if res.Failed > 0 && !(opt.Smoke && res.Failed*20 <= res.Attempted && g.pop.misplaced == 0) {
		by := ""
		for k, n := range res.failedBy {
			if n > 0 {
				by += fmt.Sprintf(" %s=%d", opNames[k], n)
			}
		}
		res.Violations = append(res.Violations, fmt.Sprintf("%d of %d operations failed (%s, misplaced=%d)", res.Failed, res.Attempted, strings.TrimSpace(by), g.pop.misplaced))
	}

	if opt.Traced {
		b := trace.computeBudget(w.Hosts > 0)
		res.Budget = &b
		res.Layer = map[string]float64{}
		res.layerFromRun(d, g, opt, first, last, regBefore, regAfter, trace, b, placeable, refUs)
		if opt.TracePath != "" {
			if err := trace.write(opt.TracePath, w.Name, b); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	return res, nil
}

// windowSamples returns the measured-window samples (at ≥ warm), and the
// warm-up ones.
func (g *loadgen) windowSamples(warm time.Duration) (window, warmup []sample) {
	for w := range g.samples {
		for _, s := range g.samples[w] {
			if s.at >= warm {
				window = append(window, s)
			} else {
				warmup = append(warmup, s)
			}
		}
	}
	return window, warmup
}

func latenciesMs(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// reportsBetween counts the monitor reports the GMs ingested in a runtime
// interval (one node/util sample each), and the telemetry samples they must
// have produced: four per node plus four per reported VM.
func reportsBetween(d *deployment, from, to time.Duration) (reports int, expectSamples float64) {
	store := d.hub.Store()
	for _, id := range d.nodeIDs {
		for _, sm := range store.Query(telemetry.NodeEntity(id), "vms", from, to) {
			reports++
			expectSamples += 4 * (1 + sm.Value)
		}
	}
	return reports, expectSamples
}

// measure fills the end-to-end metrics over the whole measured window.
// (Medians over 3 s or 5 s sub-windows were tried and spread more, not less:
// burst_local's collections last a second or two and make sub-windows bimodal.)
// The three time metrics are scaled to the reference machine speed, see
// reference.go; counts, memory and the timer-bound set-up are not.
func (r *runResult) measure(d *deployment, g *loadgen, opt runOptions, first, last snapshot, setupS, refUs float64) {
	window, _ := g.windowSamples(opt.Warm)
	for _, s := range window {
		if s.kind == opSubmit {
			r.Attempted += s.vms
		} else {
			r.Attempted++
		}
		r.Failed += s.failed
		r.failedBy[s.kind] += s.failed
	}
	r.Failed += g.pop.misplaced
	late, backlog := make([]float64, len(window)), make([]float64, len(window))
	for i, s := range window {
		late[i] = ms(s.late)
		backlog[i] = ms(s.backlog)
	}
	sort.Float64s(late)
	sort.Float64s(backlog)
	r.lateP99, r.backlogP99 = percentile(late, 0.99), percentile(backlog, 0.99)

	dt := (last.wall - first.wall).Seconds()
	cpu := last.cpu - first.cpu
	placed := float64(max(last.placed-first.placed, 1))
	mallocs := float64(last.mallocs - first.mallocs)
	reports, _ := reportsBetween(d, first.rt, last.rt)
	speed := refNominalUs / refUs // > 1 when this run's machine was slower than the reference
	r.E2E["setup_s"] = setupS
	r.E2E["submit_p50_ms"] = percentile(latenciesMs(window, opSubmit), 0.50) * speed
	r.E2E["cpu_ms_per_placement"] = cpu * 1e3 / placed * speed
	r.E2E["allocs_per_placement"] = mallocs / placed
	r.E2E["mgmt_cpu_cores"] = cpu / dt * speed
	r.E2E["allocs_per_report"] = mallocs / float64(max(reports, 1))
	r.E2E["peak_rss_mb"] = peakRSSMiB()
}

// counters is the registry and memo state the per-layer counts are read from.
type counters struct {
	placeFailed, dispatchExhausted, migrationsFailed int64
	spans                                            int64
	memoHits, memoMisses                             uint64
}

func counterSnapshot(d *deployment) counters {
	c := counters{
		placeFailed:       d.reg.Count("gm.place-failed"),
		dispatchExhausted: d.reg.Count("gl.dispatch-exhausted"),
		migrationsFailed:  d.reg.Count("gm.migrations-failed"),
	}
	for name, h := range d.reg.Histograms() {
		if strings.HasSuffix(name, ".duration.seconds") { // one observation per finished obs span
			c.spans += h.Count
		}
	}
	for _, m := range d.managers {
		hits, misses := m.ViewMemoCounters()
		c.memoHits += hits
		c.memoMisses += misses
	}
	return c
}

// layerFromRun fills the per-layer metrics that come from the workload run
// itself: counters around it and the traced spans inside it.
func (r *runResult) layerFromRun(d *deployment, g *loadgen, opt runOptions, first, last snapshot, before, after counters, trace *harnessTrace, b budget, placeable time.Duration, refUs float64) {
	placed := float64(max(last.placed-first.placed, 1))
	reports, _ := reportsBetween(d, first.rt, last.rt)
	L := r.Layer

	L["api.server_self_us"] = b.selfUs[spanAPI]
	L["livebackend.submit_self_us"] = b.selfUs[spanBackend]
	L["scheduling.place_self_us"] = b.selfUs[spanPolicy]
	L["rest.server_self_us"] = b.selfUs[spanRest]
	L["hierarchy.dispatch_span_us"] = b.spanUs[spanDispatch]
	L["hierarchy.placement_span_us"] = b.spanUs[spanPlacement]

	L["rest.http_reqs_per_placement"] = float64(trace.deliverTotals("").Requests) / placed
	L["rest.bytes_per_placement"] = float64(trace.deliverTotals(protocol.KindStartVM).Bytes) / placed
	L["rest.bytes_per_report"] = float64(trace.deliverTotals(protocol.KindMonitor).Bytes) / float64(max(reports, 1))
	L["transport.msgs_per_placement"] = float64(last.delivered-first.delivered) / placed
	L["transport.dropped"] = float64(last.dropped - first.dropped)

	L["hierarchy.place_failed"] = float64(after.placeFailed - before.placeFailed)
	L["hierarchy.dispatch_exhausted"] = float64(after.dispatchExhausted - before.dispatchExhausted)
	L["hierarchy.migrations_failed"] = float64(after.migrationsFailed - before.migrationsFailed)
	looks := float64(after.memoHits-before.memoHits) + float64(after.memoMisses-before.memoMisses)
	L["hierarchy.view_memo_hit_ratio"] = float64(after.memoHits-before.memoHits) / max(looks, 1)
	L["obs.spans_per_placement"] = float64(after.spans-before.spans) / placed

	L["telemetry.samples_per_s"] = float64(last.samples-first.samples) / (last.wall - first.wall).Seconds()
	L["telemetry.series_end"] = float64(d.hub.Store().NumSeries())

	L["election.gl_elected_ms"] = ms(d.glElected)
	L["election.all_joined_ms"] = ms(d.allJoined)
	L["election.placeable_ms"] = ms(placeable)

	L["runtime.gc_pause_total_ms"] = float64(last.gcPauseNs-first.gcPauseNs) / 1e6
	L["runtime.heap_inuse_mb"] = float64(memSnapshot().HeapInuse) / (1 << 20)
	L["runtime.goroutines_end"] = float64(last.goroutines)
	L["runtime.cpu_cores"] = (last.cpu - first.cpu) / (last.wall - first.wall).Seconds()
	L["runtime.ref_kernel_us"] = refUs

	// Generator health and the ungated tail of the submit latency.
	window, warmup := g.windowSamples(opt.Warm)
	L["loadgen.late_p99_ms"] = r.lateP99
	L["loadgen.backlog_p99_ms"] = r.backlogP99
	submits := latenciesMs(window, opSubmit)
	L["loadgen.submit_p50_ms"] = percentile(submits, 0.50)
	L["loadgen.submit_p75_ms"] = percentile(submits, 0.75)
	L["loadgen.submit_p90_ms"] = percentile(submits, 0.90)
	L["loadgen.submit_p95_ms"] = percentile(submits, 0.95)
	L["loadgen.submit_p99_ms"] = percentile(submits, 0.99)
	L["loadgen.submit_max_ms"] = percentile(submits, 1)
	over := 0
	for _, v := range submits {
		if v > 10 {
			over++
		}
	}
	L["loadgen.over_10ms_share"] = float64(over) / float64(max(len(submits), 1))
	L["loadgen.samples"] = float64(len(submits))
	// The rates achieved (the offered ones, unless a backlog grew) and the
	// read latencies by kind, zero where the workload does not issue the kind.
	dt := (last.wall - first.wall).Seconds()
	L["loadgen.placements_per_s"] = placed / dt
	L["loadgen.reads_per_s"] = float64(last.reads-first.reads) / dt
	L["loadgen.series_query_p50_ms"] = percentile(latenciesMs(window, opSeries), 0.5)
	L["loadgen.list_vms_p50_ms"] = percentile(latenciesMs(window, opListVMs), 0.5)
	L["loadgen.list_nodes_p50_ms"] = percentile(latenciesMs(window, opListNodes), 0.5)
	L["loadgen.topology_p50_ms"] = percentile(latenciesMs(window, opTopology), 0.5)
	L["loadgen.get_vm_p50_ms"] = percentile(latenciesMs(window, opGetVM), 0.5)
	// The warm-up ran with the span wrappers idle: traced vs. untraced p50.
	L["trace.overhead_pct"] = 0
	if base := percentile(latenciesMs(warmup, opSubmit), 0.5); base > 0 {
		L["trace.overhead_pct"] = 100 * (percentile(submits, 0.5) - base) / base
	}
}
