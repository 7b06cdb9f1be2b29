// Package stats provides the small measurement toolkit the benchmark
// harnesses share: sample collection with percentiles, the closed-loop
// measurement window, and plain-text table rendering for the figure
// outputs.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hatrpc/internal/sim"
)

// Sample collects latency observations (nanoseconds).
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for empty samples).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, v := range s.xs {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	m := math.Inf(-1)
	if len(s.xs) == 0 {
		return 0
	}
	for _, v := range s.xs {
		if v > m {
			m = v
		}
	}
	return m
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// ---------------------------------------------------------------------------

// A window lasts windowCalls mean first-call latencies, and at least minWindow.
const minWindow, windowCalls = sim.Time(400_000), 20

// Window is the measurement window of every closed-loop run (the ATB
// throughput and mix benchmarks, YCSB). It opens when the last client
// completes its first call, leaving the ramp-up outside, and lasts
// max(400 µs, 20 × the mean first-call latency), so each client completes
// many calls inside even when calls queue long. A call counts, toward
// throughput and latency alike, iff it completes inside [open, close), as
// recorded in event order. Each client loops while Running and reports
// every call to Done.
type Window struct {
	clients, firsts int
	firstSum        sim.Time // of the first-call latencies
	open, close     sim.Time // set once every client's first call is in
}

// NewWindow returns the window of a run of clients closed-loop clients.
func NewWindow(clients int) *Window { return &Window{clients: clients} }

// Running reports whether a client should start another call at now.
func (w *Window) Running(now sim.Time) bool {
	return w.firsts < w.clients || now < w.close
}

// Done records a call that ran from start to end, first marking the
// client's first call, and reports whether the call counts.
func (w *Window) Done(first bool, start, end sim.Time) bool {
	if first {
		w.firsts++
		w.firstSum += end - start
		if w.firsts == w.clients {
			w.open = end
			w.close = end + max(minWindow, windowCalls*w.firstSum/sim.Time(w.clients))
		}
	}
	return w.firsts == w.clients && end >= w.open && end < w.close
}

// Rate returns n counted events per second of the window.
func (w *Window) Rate(n int) float64 {
	return float64(n) / (float64(w.close-w.open) / 1e9)
}

// ---------------------------------------------------------------------------

// FormatBytes renders a size label (512B, 4KB, 128KB, 1GB ...).
func FormatBytes(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// FormatNs renders a duration in adaptive units.
func FormatNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// ---------------------------------------------------------------------------

// Table renders aligned plain-text tables for the figure outputs.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// Row appends a row; values are rendered with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
