package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this build")

// TestExperimentsGolden pins every quick-scale table, as `snoozesim -exp all`
// prints them, to testdata/quick.golden: a change that moves a reproduced
// number shows up as a diff here. F1's placements/s(wall) column is wall-clock
// throughput, so it is masked, and runs of spaces are normalised because that
// column's width moves the padding of the row. Run with -update to rewrite the
// file after a change that is meant to move a table.
func TestExperimentsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden tables are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	var out strings.Builder
	for _, r := range All(ScaleQuick) {
		out.WriteString(r.String() + "\n")
	}
	got := normaliseTables(out.String())
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			g, w := "", ""
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("line %d differs from %s (go test -run TestExperimentsGolden -update rewrites it)\n got: %s\nwant: %s", i+1, path, g, w)
			}
		}
	}
}

// normaliseTables masks every placements/s(wall) cell and collapses each
// line's runs of spaces into one, trimming the padding at its end.
func normaliseTables(s string) string {
	lines := strings.Split(s, "\n")
	wall := -1 // column of placements/s(wall) in the table being read
	for i, line := range lines {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(line, "note:"):
			wall = -1
		case wall < 0:
			for j, f := range fields {
				if f == "placements/s(wall)" {
					wall = j
				}
			}
		case wall < len(fields) && !strings.HasPrefix(fields[wall], "---"):
			fields[wall] = "*"
		}
		lines[i] = strings.Join(fields, " ")
	}
	return strings.Join(lines, "\n")
}
