package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("N=%d mean=%v min=%v max=%v", s.N(), s.Mean(), s.Min(), s.Max())
	}
	if p := s.Percentile(50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := s.Percentile(100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := s.Percentile(25); p != 2 {
		t.Fatalf("p25 = %v", p)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		if s.N() == 0 {
			return true
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddAfterPercentileResorts(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Percentile(50)
	s.Add(1)
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 after re-add = %v", p)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{0, "0B"},
		{4, "4B"},
		{512, "512B"},
		{1023, "1023B"},
		{1 << 10, "1KB"},
		{4096, "4KB"},
		{5000, "5000B"}, // not a whole KB multiple
		{131072, "128KB"},
		{1 << 20, "1MB"},
		{3 << 20, "3MB"},
		{(1 << 20) + 1024, "1025KB"}, // whole KB but not whole MB
		{1 << 30, "1GB"},             // GB tier (used to render as 1024MB)
		{2 << 30, "2GB"},
		{(1 << 30) + (1 << 20), "1025MB"}, // whole MB but not whole GB
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestFormatNs(t *testing.T) {
	cases := []struct {
		ns   float64
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{999, "999ns"},
		{1000, "1.00µs"},
		{1500, "1.50µs"},
		{999999, "1000.00µs"},
		{1e6, "1.00ms"},
		{2500000, "2.50ms"},
		{1e9, "1.00s"},
		{3e9, "3.00s"},
	}
	for _, c := range cases {
		if got := FormatNs(c.ns); got != c.want {
			t.Errorf("FormatNs(%v) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	mk := func(vs ...float64) *Sample {
		var s Sample
		for _, v := range vs {
			s.Add(v)
		}
		return &s
	}
	cases := []struct {
		name string
		s    *Sample
		p    float64
		want float64
	}{
		{"empty", mk(), 50, 0},
		{"empty-p0", mk(), 0, 0},
		{"empty-p100", mk(), 100, 0},
		{"single-p0", mk(42), 0, 42},
		{"single-p50", mk(42), 50, 42},
		{"single-p100", mk(42), 100, 42},
		{"pair-p0", mk(10, 20), 0, 10},
		{"pair-p50-interpolates", mk(10, 20), 50, 15},
		{"pair-p100", mk(10, 20), 100, 20},
		{"p-below-zero-clamps", mk(10, 20), -5, 10},
		{"p-above-hundred-clamps", mk(10, 20), 150, 20},
		{"quartile-interpolation", mk(5, 1, 3, 2, 4), 25, 2},
		{"p75-interpolation", mk(1, 2, 3, 4), 75, 3.25},
		{"p99-near-max", mk(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 99, 9.91},
	}
	for _, c := range cases {
		if got := c.s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Percentile(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("proto", "size", "lat")
	tb.Row("Eager", "512B", 3.14159)
	tb.Row("Direct-WriteIMM", "128KB", 42)
	out := tb.String()
	if !strings.Contains(out, "Direct-WriteIMM") || !strings.Contains(out, "3.14") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	// Separator under headers.
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatalf("no separator: %q", lines[1])
	}
}

// TestWindowBounds: the window opens at the last first call's completion,
// lasts max(400 µs, 20 × the mean first-call latency), and counts exactly
// the calls that complete inside [open, close).
func TestWindowBounds(t *testing.T) {
	w := NewWindow(2)
	if w.Done(true, 0, 100) || !w.Running(1_000_000) {
		t.Fatal("window opened before the last client's first call")
	}
	if w.Done(false, 100, 250) {
		t.Error("a call completing before the opening counts")
	}
	if !w.Done(true, 0, 300) {
		t.Error("the opening call itself is inside [open, close)")
	}
	// Mean first call 200 ns: the 400 µs floor sets the length.
	if !w.Done(false, 300, 400_299) || w.Done(false, 300, 400_300) {
		t.Error("close is not open + 400 µs")
	}
	if !w.Running(400_299) || w.Running(400_300) {
		t.Error("clients do not stop at the close")
	}
	if r := w.Rate(4); r != 10_000 {
		t.Errorf("4 calls in 400 µs = %v/s, want 10000", r)
	}

	// Mean first call 50 µs: the window is twenty of them.
	w = NewWindow(2)
	w.Done(true, 0, 40_000)
	w.Done(true, 0, 60_000)
	if !w.Running(60_000+999_999) || w.Running(60_000+1_000_000) {
		t.Error("close is not open + 20 × the mean first-call latency")
	}
}
