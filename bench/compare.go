package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of comparing one (metric, workload) pair.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // run-to-run spread wider than the bound
)

// worsening is by how much b is worse than a, as a share of a, in the
// metric's own direction (negative = b is better).
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies a metric's bound. A pair whose own repeat-to-repeat
// spread (either side) exceeds the bound cannot be called unchanged or
// changed: it is unresolved.
func judge(m metricDef, a, b, spreadA, spreadB float64) verdict {
	if spreadA > m.Bound || spreadB > m.Bound {
		return unresolved
	}
	switch w := worsening(m, a, b); {
	case w > m.Bound:
		return worse
	case w < -m.Bound:
		return better
	}
	return within
}

// relChange is (b−a)/a in percent, signed as measured (not by direction).
func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCompare prints one row per (metric, workload) of two result files,
// A the parent and B the change, and returns 1 if any pair is worse.
func runCompare(pathA, pathB string, out io.Writer) int {
	a, errA := readSuite(pathA)
	b, errB := readSuite(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compareSuites(a, b, out)
}

func compareSuites(a, b *suiteResult, out io.Writer) int {
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Workload] = w
	}
	code := 0
	fmt.Fprintf(out, "%-14s %-26s %16s %16s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Workload]
		if wb == nil {
			fmt.Fprintf(out, "%-14s missing from B\n", wa.Workload)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			v := judge(m, va, vb, wa.Spread[m.Name], wb.Spread[m.Name])
			if v == worse {
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-26s %16.6g %16.6g %+8.2f%% %6.1f%%  %s\n",
				wa.Workload, m.Name, va, vb, relChange(va, vb), 100*m.Bound, v)
		}
	}
	return code
}
