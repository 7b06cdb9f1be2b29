package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hatrpc/internal/atb"
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
