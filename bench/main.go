// Command bench is the repo's wall-clock benchmark: it assembles a real
// deployment (/v1 → livebackend → GL → GM → rest/protocol → LC under
// WallRuntime) inside one process and drives it with four named workloads.
//
//	go run ./bench -seed 1                      every workload, traced runs, layer probes
//	go run ./bench -workload burst_local -seed 3 -seconds 15 -trace 0   one run, as the driver makes it
//	go run ./bench -smoke                       tiny sizes, every code path
//	go run ./bench -repeat 5                    run-to-run spread against the bounds
//	go run ./bench -trend                       the committed trajectory
//
// README.md describes the workloads, the metrics and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Run shape. The driver passes -seconds; the rest is part of the benchmark's
// definition.
const (
	defaultSeconds   = 20
	warmUp           = 3 * time.Second
	driverSetups     = 3 // deployments per untraced run; setup_s is their median
	tracedSeconds    = 10
	probeTime        = 100 * time.Millisecond // per isolated layer probe, or 10k iterations
	lateLimitMs      = 250.0                  // generator lateness at p99 beyond which a run measures nothing (3–25 ms is normal on 2 busy cores)
	historyFile      = "history.jsonl"
	smokeWindow      = 800 * time.Millisecond
	smokeWarm        = 300 * time.Millisecond
	smokeProbeBudget = 5 * time.Millisecond
)

func main() {
	workload := flag.String("workload", "", "run this one workload and print a one-line JSON result (the driver's mode)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", defaultSeconds, "measured window in seconds")
	traceMode := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	smoke := flag.Bool("smoke", false, "tiny sizes: every workload, every layer probe and the traced run in a few seconds")
	repeat := flag.Int("repeat", 0, "run N times (seeds seed..seed+N-1) and print median, quartiles and spread per metric against the bounds")
	trend := flag.Bool("trend", false, "print the trajectory recorded in results/"+historyFile)
	flag.Parse()

	var err error
	switch {
	case *trend:
		err = printTrend(os.Stdout)
	case *smoke:
		err = runSmoke(os.Stdout)
	case *repeat > 0:
		err = runRepeat(*workload, *seed, *seconds, *repeat)
	case *workload != "":
		err = runDriver(*workload, *seed, *seconds, *traceMode == 1)
	default:
		err = runFull(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultsDir finds bench/results from the repo root or from bench/ itself;
// "" when the working directory is neither.
func resultsDir() string {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "deploy.go")); err == nil {
			return filepath.Join(dir, "results")
		}
	}
	return ""
}

func tracePath(workload string) string {
	dir := resultsDir()
	if dir == "" || os.MkdirAll(dir, 0o755) != nil {
		return ""
	}
	return filepath.Join(dir, "trace-"+workload+".json")
}

// driverOptions is the shape of one driver-mode run.
func driverOptions(seed int64, seconds int, traced bool) runOptions {
	opt := runOptions{
		Seed: seed, Window: time.Duration(seconds) * time.Second, Warm: warmUp,
		Setups: driverSetups,
	}
	if traced {
		opt.Traced, opt.Setups = true, 1
	}
	return opt
}

// metricValue is one reported value in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver performs one run of one workload and prints the result object
// the driver reads as the last line of standard output.
func runDriver(name string, seed int64, seconds int, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	opt := driverOptions(seed, seconds, traced)
	if traced {
		opt.TracePath = tracePath(name)
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	values, defs := res.E2E, endToEnd
	if traced {
		if err := runLayerProbes(res.Layer, probeTime, false); err != nil {
			return err
		}
		res.Budget.print(os.Stdout, name)
		values, defs = res.Layer, perLayer
	}
	printMetrics(os.Stdout, name, values, defs)
	for _, v := range res.Violations {
		fmt.Println("VIOLATION:", v)
	}
	out := driverResult{res.correct(), max(res.Attempted, 1), res.Failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct() {
		return fmt.Errorf("%s: %d invariants broken", name, len(res.Violations))
	}
	return nil
}

func printMetrics(w *os.File, workload string, values map[string]float64, defs []metricDef) {
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			fmt.Fprintf(w, "%-14s %-36s %14.4f %s\n", workload, d.Name, v, d.Unit)
		}
	}
}

// driverResult is the result object of one driver-mode run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r driverResult) values() map[string]float64 {
	out := make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		out[k] = v.Value
	}
	return out
}

// runChild makes one driver-mode run in a process of its own, so that CPU,
// allocation and peak-RSS figures belong to that run alone. The child's
// report is passed through; its last line is the result.
func runChild(workload string, seed int64, seconds int, traced bool, echo io.Writer) (driverResult, error) {
	self, err := os.Executable()
	if err != nil {
		return driverResult{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	var res driverResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Fprint(echo, string(out))
		return res, fmt.Errorf("%s seed %d: no result (%v)", workload, seed, runErr)
	}
	fmt.Fprintln(echo, strings.Join(lines[:len(lines)-1], "\n"))
	return res, nil
}

// fullResult is one complete set: every workload's end-to-end and per-layer
// values.
type fullResult map[string]historyWorkloadRow

// runFull makes, for every workload, an untraced run (end-to-end metrics) and
// a shorter traced run (per-layer metrics, budget table), each in its own
// process, prints every metric and appends the trajectory line.
func runFull(seed int64, seconds int) error {
	set := fullResult{}
	broken := 0
	for _, w := range workloads {
		fmt.Printf("\n== %s ==\n", w.Name)
		e2e, err := runChild(w.Name, seed, seconds, false, os.Stdout)
		if err != nil {
			return err
		}
		layer, err := runChild(w.Name, seed, min(seconds, tracedSeconds), true, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d operations attempted, %d failed\n", w.Name, e2e.Attempted+layer.Attempted, e2e.Failed+layer.Failed)
		if !e2e.Correct || !layer.Correct {
			broken++
		}
		row := historyWorkloadRow{EndToEnd: e2e.values(), PerLayer: layer.values()}
		// Tracing overhead: the traced run's median submit, at reference
		// speed, against the untraced run's (the traced run alone can only
		// compare its window with its own warm-up).
		if base, ref := row.EndToEnd["submit_p50_ms"], row.PerLayer["runtime.ref_kernel_us"]; base > 0 && ref > 0 {
			traced := row.PerLayer["loadgen.submit_p50_ms"] * refNominalUs / ref
			row.PerLayer["trace.overhead_pct"] = 100 * (traced - base) / base
			fmt.Printf("%-14s %-36s %14.4f %% (against the untraced run)\n", w.Name, "trace.overhead_pct", row.PerLayer["trace.overhead_pct"])
		}
		set[w.Name] = row
	}
	if err := appendHistory(seed, set); err != nil {
		fmt.Fprintln(os.Stderr, "bench: trajectory not recorded:", err)
	}
	if broken > 0 {
		return fmt.Errorf("%d workloads broke an invariant", broken)
	}
	return nil
}

// runSmoke runs every workload traced at tiny sizes, side by side, plus every
// layer probe, and checks that each named metric was produced. It exists so
// that tier-1 breaks when a refactor removes a symbol the benchmark needs;
// its numbers mean nothing.
func runSmoke(out io.Writer) error {
	start := time.Now()
	type outcome struct {
		name string
		res  *runResult
		err  error
	}
	results := make(chan outcome, len(workloads)+1)
	var wg sync.WaitGroup
	for _, w := range workloads {
		wg.Add(1)
		go func(w workloadSpec) {
			defer wg.Done()
			res, err := runWorkload(w, runOptions{
				Seed: 1, Window: smokeWindow, Warm: smokeWarm, Setups: 1,
				Traced: true, Smoke: true,
			})
			results <- outcome{w.Name, res, err}
		}(w)
	}
	probes := map[string]float64{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		results <- outcome{name: "layer probes", err: runLayerProbes(probes, smokeProbeBudget, true)}
	}()
	wg.Wait()
	close(results)
	var failures []string
	var runs []*runResult
	for o := range results {
		if o.err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", o.name, o.err))
			continue
		}
		if o.res != nil {
			runs = append(runs, o.res)
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Workload < runs[j].Workload })
	for _, res := range runs {
		for k, v := range probes {
			res.Layer[k] = v
		}
		for _, v := range res.Violations {
			failures = append(failures, res.Workload+": "+v)
		}
		for _, d := range endToEnd {
			if v, ok := res.E2E[d.Name]; !ok || v <= 0 {
				failures = append(failures, fmt.Sprintf("%s: end-to-end metric %s missing or zero (%v)", res.Workload, d.Name, v))
			}
		}
		for _, d := range perLayer {
			if _, ok := res.Layer[d.Name]; !ok {
				failures = append(failures, fmt.Sprintf("%s: per-layer metric %s missing", res.Workload, d.Name))
			}
		}
		fmt.Fprintf(out, "smoke %-14s attempted=%d failed=%d budget rows=%d\n", res.Workload, res.Attempted, res.Failed, len(res.Budget.Rows))
	}
	fmt.Fprintf(out, "smoke: %d workloads, %d end-to-end and %d per-layer metrics in %.1fs\n", len(runs), len(endToEnd), len(perLayer), time.Since(start).Seconds())
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(out, "FAIL:", f)
		}
		return fmt.Errorf("smoke: %d checks failed", len(failures))
	}
	return nil
}
