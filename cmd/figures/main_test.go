package main

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hatrpc/internal/atb"
	"hatrpc/internal/simnet"
)

// TestCellsMatchResults re-runs one cheap cell of every composition of the
// ATB sweep — each dialer under each loop — and requires the row it prints
// to equal the row checked in under results/, so tier-1 catches in seconds
// the drift the CI `results` job needs a full regeneration to see. A cell is
// a fresh fabric at the sweep's seed: alone it measures what it measures
// inside the full sweep.
func TestCellsMatchResults(t *testing.T) {
	for _, c := range []struct {
		fig            string
		subject        int // index into the figure's subjects
		size, clients  int
		dialer, branch string
	}{
		{"fig04", 0, 512, 0, "raw × count", "Eager-SendRecv busy"},
		{"fig05", 5, 512, 4, "raw × window", "Direct-WriteIMM event"},
		{"fig11", 0, 512, 0, "stub × count", "hinted"},
		{"fig11", 4, 4096, 0, "stub × count", "pinned to RFP"},
		{"fig12", 0, 512, 16, "stub × window", "hinted"},
		{"fig12", 2, 512, 64, "stub × window", "pinned to Direct-Write-Send, past the cores"},
		{"fig13", 0, 512, 4, "mix 512 B", "hinted"},
		{"fig14", 1, 131072, 16, "mix 128 KB", "pinned to Hybrid-EagerRNDV"},
	} {
		fig := atbFigures[slices.IndexFunc(atbFigures, func(f atbFigure) bool { return f.name == c.fig })]
		fig.sweep.Subjects = fig.sweep.Subjects[c.subject : c.subject+1]
		fig.sweep.Sizes = []int{c.size}
		if fig.sweep.Clients != nil {
			fig.sweep.Clients = []int{c.clients}
		}
		content, _ := fig.render(atb.Testbed{})
		lines := strings.Split(strings.TrimSpace(content), "\n")
		got := strings.Fields(lines[len(lines)-1])

		checkedIn, err := os.ReadFile(filepath.Join("..", "..", "results", c.fig+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		labels := len(fig.cols) - 2 // every ATB figure ends in two measured columns
		var want []string
		for _, line := range strings.Split(string(checkedIn), "\n") {
			if f := strings.Fields(line); len(f) == len(got) && slices.Equal(f[:labels], got[:labels]) {
				want = f
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s, %s (%s):\n  printed  %v\n  results/ %v", c.fig, c.dialer, c.branch, got, want)
		}
	}
}

// TestConcurrentPointsMatchRun: measuring a sweep's points at once gives
// the points, in the order, that measuring them one at a time does — for
// the raw and the stub dialer, under both loops and the mix. Under -race it
// also shows that the points' simulations share no state.
func TestConcurrentPointsMatchRun(t *testing.T) {
	fig04, fig12, fig13 := atb.Fig04(), atb.Fig12(), atb.Fig13()
	fig04.Subjects, fig04.Sizes, fig04.Iters = fig04.Subjects[:3], []int{64, 8192}, 5
	fig12.Subjects, fig12.Sizes, fig12.Clients = fig12.Subjects[:2], []int{512}, []int{1, 4}
	fig13.Subjects, fig13.Clients = fig13.Subjects[:2], []int{4}
	for _, sw := range []atb.Sweep{fig04, fig12, fig13} {
		if got, want := measure(sw), sw.Run(); !slices.Equal(got, want) {
			t.Errorf("concurrent points differ from Run's:\n  %+v\n  %+v", got, want)
		}
	}
}

// TestResultsWithinLineRate: no checked-in throughput row carries more
// payload than the server's link (12 500 MB/s at 100 Gbps), with 1 % for
// the bytes of calls that began crossing before their window opened. Fig. 14
// tabulates only its TputCalls, so its check is Kops/s × 128 KB: half-tight,
// because the LatCalls cross the link with 128 KB too. The sweep's own
// guard counts both, so an over-count in a mix point fails the run.
func TestResultsWithinLineRate(t *testing.T) {
	line := simnet.DefaultConfig().LinkGbps * 1e3 / 8
	for _, c := range []struct {
		fig       string
		mbPerCell float64 // MB/s per unit of the last column
	}{{"fig05", 1}, {"fig12", 1}, {"fig14", 131072 / 1e3}} {
		content, err := os.ReadFile(filepath.Join("..", "..", "results", c.fig+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		_, table, _ := strings.Cut(string(content), "\n-")
		rows := strings.Split(strings.TrimSpace(table), "\n")[1:]
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", c.fig)
		}
		for _, row := range rows {
			f := strings.Fields(row)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", c.fig, row, err)
			}
			if mb := v * c.mbPerCell; mb > 1.01*line {
				t.Errorf("%s: %q carries %.0f MB/s through a %.0f MB/s link", c.fig, row, mb, line)
			}
		}
	}
}

// TestBadArgumentsFailBeforeAnyFigure: an unknown -only name is rejected with
// the valid list, and an unwritable -trace path fails before the first sweep,
// not after the last.
func TestBadArgumentsFailBeforeAnyFigure(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"-only", "fig04,fig4", "-out", out}); err == nil || !strings.Contains(err.Error(), `"fig4" (valid: fig04,`) {
		t.Errorf("-only fig4: err = %v, want it rejected with the valid names", err)
	}
	if err := run([]string{"-only", "fig04", "-trace", filepath.Join(out, "no", "such", "dir", "t.json"), "-out", out}); err == nil {
		t.Error("unwritable -trace path accepted")
	}
	if left, _ := os.ReadDir(out); len(left) != 0 {
		t.Errorf("%d files written before the arguments were rejected", len(left))
	}
}
