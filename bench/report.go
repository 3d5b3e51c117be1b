package main

// report.go keeps the benchmark's trajectory (results/history.jsonl, one
// line per full run) and prints run-to-run spread for -repeat.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// historyLine is one full run in the trajectory.
type historyLine struct {
	Commit    string                        `json:"commit"`
	Date      string                        `json:"date"`
	Seed      int64                         `json:"seed"`
	NProc     int                           `json:"nproc"`
	Workloads map[string]historyWorkloadRow `json:"workloads"`
}

type historyWorkloadRow struct {
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
}

// gitCommit names the commit measured ("-dirty" when the tree has uncommitted
// changes); "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func appendHistory(seed int64, set fullResult) error {
	dir := resultsDir()
	if dir == "" {
		return fmt.Errorf("not in the repo root or bench/")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line := historyLine{
		Commit: gitCommit(), Date: time.Now().UTC().Format(time.RFC3339), Seed: seed,
		NProc: runtime.NumCPU(), Workloads: map[string]historyWorkloadRow{},
	}
	for name, row := range set {
		line.Workloads[name] = row
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, historyFile), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTrend prints every end-to-end metric of every workload, one column
// per recorded run, oldest first.
func printTrend(w io.Writer) error {
	dir := resultsDir()
	if dir == "" {
		return fmt.Errorf("run from the repo root or from bench/")
	}
	f, err := os.Open(filepath.Join(dir, historyFile))
	if err != nil {
		return err
	}
	defer f.Close()
	var lines []historyLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var l historyLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("%s: %w", historyFile, err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-22s", "workload", "metric")
	for _, l := range lines {
		fmt.Fprintf(w, " %12s", l.Commit)
	}
	fmt.Fprintf(w, "\n%-14s %-22s", "", "")
	for _, l := range lines {
		fmt.Fprintf(w, " %12s", l.Date[:min(10, len(l.Date))])
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "%-14s %-22s", wl.Name, d.Name)
			for _, l := range lines {
				fmt.Fprintf(w, " %12.4g", l.Workloads[wl.Name].EndToEnd[d.Name])
			}
			fmt.Fprintf(w, "  %s\n", d.Unit)
		}
	}
	return nil
}

// quartiles returns Python's statistics.quantiles(values, n=4) (exclusive
// method), which is what the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// runRepeat measures run-to-run spread the way the driver does: n untraced
// runs of one workload (or of each), each in its own process, seeds
// seed..seed+n-1, then median, quartiles and spread ((q3−q1)/median) per
// end-to-end metric against its bound. It fails when a spread exceeds the
// bound or any run broke an invariant.
func runRepeat(only string, seed int64, seconds, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	var failures []string
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runChild(w.Name, seed+int64(i), seconds, false, io.Discard)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				failures = append(failures, fmt.Sprintf("%s seed %d: %d failed operations, correct=%v", w.Name, seed+int64(i), res.Failed, res.Correct))
			}
			for k, v := range res.values() {
				values[k] = append(values[k], v)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w.Name, seed+int64(i))
		}
		fmt.Printf("\n%s, %d runs of %d s\n", w.Name, n, seconds)
		fmt.Printf("  %-22s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			spread := (q3 - q1) / q2
			mark := ""
			if spread > d.Bound && d.Name != "setup_s" {
				mark = "  > bound"
				failures = append(failures, fmt.Sprintf("%s %s: spread %.1f%% exceeds bound %.0f%%", w.Name, d.Name, 100*spread, 100*d.Bound))
			}
			fmt.Printf("  %-22s %12.4f %12.4f %12.4f %7.1f%% %7.0f%%%s\n", d.Name, q1, q2, q3, 100*spread, 100*d.Bound, mark)
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d repeat checks failed", len(failures))
	}
	return nil
}
