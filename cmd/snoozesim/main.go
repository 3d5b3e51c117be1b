// Command snoozesim reproduces the paper's evaluation: it runs the
// experiment suite (E1–E7, see DESIGN.md and EXPERIMENTS.md) on the
// simulated cluster and prints one table per reproduced figure/table.
//
// Usage:
//
//	snoozesim                 # all experiments, quick scale
//	snoozesim -scale full     # paper-scale dimensions (slower)
//	snoozesim -exp e4         # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"snooze/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1..e7, e9, a1, a2, f1, a name like gray-failures, or 'all'")
	scaleName := flag.String("scale", "quick", "experiment scale: quick | full")
	flag.Parse()

	scale := experiments.ScaleQuick
	switch *scaleName {
	case "quick":
	case "full":
		scale = experiments.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick|full)\n", *scaleName)
		os.Exit(2)
	}

	start := time.Now()
	if *exp == "all" {
		for _, r := range experiments.All(scale) {
			fmt.Println(r)
		}
	} else {
		r, err := experiments.ByID(*exp, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(r)
	}
	fmt.Printf("(wall time: %v)\n", time.Since(start).Round(time.Millisecond))
}
