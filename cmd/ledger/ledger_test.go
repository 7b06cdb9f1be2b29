package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestOrderIsABBA: pairs run A B, B A, B A, A B, and so on, so over ten
// pairs each side runs first five times.
func TestOrderIsABBA(t *testing.T) {
	s := [2]*side{{name: "a"}, {name: "b"}}
	var got []string
	first := map[string]int{}
	for i := 0; i < 10; i++ {
		o := order(i, s)
		got = append(got, o[0].name+o[1].name)
		first[o[0].name]++
	}
	if strings.Join(got[:4], " ") != "ab ba ba ab" || first["a"] != 5 || first["b"] != 5 {
		t.Fatalf("order %v, first %v", got, first)
	}
}

// TestCriticalMatchesTables: the interval's rank is one above the
// two-sided 5 % critical T of the published signed-rank tables (0 at 6
// pairs, 3 at 8, 8 at 10, 25 at 15), and five pairs are too few.
func TestCriticalMatchesTables(t *testing.T) {
	for _, c := range []struct{ n, k int }{{6, 1}, {8, 4}, {10, 9}, {15, 26}, {5, 0}} {
		k, conf := critical(signedRankCounts(c.n), 0.05)
		if k != c.k || (k > 0 && conf < 0.95) {
			t.Errorf("%d pairs: k = %d at confidence %.4f, want k = %d at ≥ 0.95", c.n, k, conf, c.k)
		}
	}
	var total float64
	for _, c := range signedRankCounts(10) {
		total += c
	}
	if total != 1024 {
		t.Errorf("signedRankCounts(10) sums to %v, want 2^10", total)
	}
}

// TestShift: a pure shift is estimated exactly with a zero-width
// interval; identical samples give an interval around 0; a shift within
// the noise does not exclude 0; and five pairs are too few.
func TestShift(t *testing.T) {
	a := []float64{100, 103, 98, 101, 99, 104, 97, 102, 100.5, 99.5}
	b := make([]float64, len(a))
	for i, x := range a {
		b[i] = x + 5
	}
	if est, lo, hi, _, ok := shift(a, b, 0.05); !ok || est != 5 || lo != 5 || hi != 5 {
		t.Errorf("shift by 5: %v in [%v, %v], ok %v", est, lo, hi, ok)
	}
	if est, lo, hi, _, _ := shift(a, a, 0.05); est != 0 || lo > 0 || hi < 0 {
		t.Errorf("A/A: %v in [%v, %v]", est, lo, hi)
	}
	noisy := []float64{101, 102, 99, 100, 103, 98, 101.5, 100, 99, 102}
	if _, lo, hi, _, _ := shift(a, noisy, 0.05); lo > 0 || hi < 0 {
		t.Errorf("a shift within the noise excluded 0: [%v, %v]", lo, hi)
	}
	if _, lo, hi, _, ok := shift(a[:5], b[:5], 0.05); ok || !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("five pairs gave an interval [%v, %v]", lo, hi)
	}
}

// TestShiftIsPaired: when the host drifts far more between pairs than b
// differs from a within one, the interval follows the per-pair gap, not
// the spread of either side.
func TestShiftIsPaired(t *testing.T) {
	var a, b []float64
	for i := 0; i < 10; i++ {
		drift := 100 * float64(i%5)
		a = append(a, 1000+drift)
		b = append(b, 1000+drift+1+0.1*float64(i%3))
	}
	if est, lo, hi, _, ok := shift(a, b, 0.05); !ok || lo < 1 || hi > 1.2 || est < lo || est > hi {
		t.Errorf("drifting pairs b = a + 1..1.2: %v in [%v, %v], ok %v", est, lo, hi, ok)
	}
}

func TestQuartiles(t *testing.T) {
	if q := quartilesOf([]float64{4, 1, 3, 2, 5}); q != [3]float64{2, 3, 4} {
		t.Errorf("quartiles of 1..5 = %v", q)
	}
	if q := quartilesOf([]float64{1, 2, 3, 4}); q != [3]float64{1.75, 2.5, 3.25} {
		t.Errorf("quartiles of 1..4 = %v", q)
	}
}

// TestParseRun reads a run in the benchmark's driver form, and refuses
// one whose outputs were wrong or whose figures are missing.
func TestParseRun(t *testing.T) {
	out := `workload echo_bulk seed 1 GOMAXPROCS 2 (closed loop, 4 clients, primary op Echo)
end-to-end metrics (5 repeats, 5319 primary-op samples, tail = p99, sim_digest f30c4fdc3e37188b)
  host_ops_per_s                                            29693 ops/s
{"correct":true,"attempted":5319,"failed":0,"metrics":{"host_alloc_bytes_per_op":{"value":131205.9,"unit":"B/op"},"host_allocs_per_op":{"value":1.0073,"unit":"allocs/op"},"host_ops_per_s":{"value":29692.96,"unit":"ops/s"},"setup_s":{"value":0.0094,"unit":"s"}}}
`
	r, err := parseRun([]byte(out))
	if err != nil || r != (run{opsPerS: 29692.96, setup: 0.0094, allocs: 1.0073, allocBytes: 131205.9, digest: "f30c4fdc3e37188b"}) {
		t.Fatalf("parseRun = %+v, %v", r, err)
	}
	for what, bad := range map[string]string{
		"incorrect":      strings.Replace(out, `"correct":true`, `"correct":false`, 1),
		"no digest":      strings.Replace(out, "sim_digest", "digest", 1),
		"no ops":         strings.Replace(out, `"host_ops_per_s"`, `"ops"`, 1),
		"no setup":       strings.Replace(out, `"setup_s"`, `"setup"`, 1),
		"no JSON line":   out + "trailing\n",
		"empty output":   "",
		"truncated JSON": out[:len(out)-10],
	} {
		if _, err := parseRun([]byte(bad)); err == nil {
			t.Errorf("%s: parsed without error", what)
		}
	}
}

// TestReportVerdicts: a clear gain reads as an interval excluding 0 with
// the gain rule met, one run whose digest differs makes the digests
// disagree, and a shift as small as A/A runs read is unresolved even
// when its interval excludes 0.
func TestReportVerdicts(t *testing.T) {
	a, b := &side{name: "a"}, &side{name: "b"}
	for i := 0; i < 10; i++ {
		a.runs = append(a.runs, run{opsPerS: 100 + float64(i%3), allocs: 1, digest: "d1"})
		b.runs = append(b.runs, run{opsPerS: 120 + float64(i%4), allocs: 1, digest: "d1"})
	}
	var out strings.Builder
	report(&out, [2]*side{a, b}, time.Second)
	for _, want := range []string{"excludes 0", "b ahead in 10 of 10 pairs", "rule (≥ 9/10 pairs, median gap > a's IQR): met", ": agree"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	b.runs[3].digest = "d2"
	out.Reset()
	report(&out, [2]*side{a, b}, time.Second)
	if !strings.Contains(out.String(), ": disagree") {
		t.Errorf("a differing digest still agrees:\n%s", out.String())
	}
	for i := range b.runs {
		b.runs[i].opsPerS = a.runs[i].opsPerS + 1 // 1 %
	}
	out.Reset()
	report(&out, [2]*side{a, b}, time.Second)
	if !strings.Contains(out.String(), "excludes 0, but the shift is under 1.5 %") {
		t.Errorf("a 1 %% shift is not unresolved:\n%s", out.String())
	}
}

// TestReportTable: the report lists every pair in running order with its
// difference, each side's median and quartiles of host_ops_per_s, the
// setup_s medians with their shift, and the allocation medians.
func TestReportTable(t *testing.T) {
	a, b := &side{name: "a", rev: "base"}, &side{name: "b", rev: "change"}
	for i := 0; i < 4; i++ {
		a.runs = append(a.runs, run{opsPerS: 1000 + 10*float64(i), setup: 0.040 + 0.001*float64(i), allocs: 2, allocBytes: 100, digest: "d1"})
		b.runs = append(b.runs, run{opsPerS: 1100 + 10*float64(i), setup: 0.020 + 0.001*float64(i), allocs: 2, allocBytes: 90, digest: "d1"})
	}
	var out strings.Builder
	report(&out, [2]*side{a, b}, 8*time.Second)
	want := []string{
		"  a = base (",
		" pair  first          a ops/s          b ops/s        b − a",
		"    1      a           1000.0           1100.0       +100.0",
		"    2      b           1010.0           1110.0       +100.0",
		"    3      b           1020.0           1120.0       +100.0",
		"    4      a           1030.0           1130.0       +100.0",
		"  a                  1015.0       1007.5       1022.5         15.0",
		"  b                  1115.0       1107.5       1122.5         15.0",
		"shift b − a (Hodges–Lehmann): +100.0 ops/s (+9.85 % of a's median)",
		"  too few runs for a 95 % interval",
		"b ahead in 4 of 4 pairs",
		"setup_s                  a 0.0415   b 0.0215 (medians), shift b − a -0.02 s (-48.2 % of a's median)",
		"host_allocs_per_op       a 2   b 2 (medians)",
		"host_alloc_bytes_per_op  a 100   b 90 (medians)",
		"sim_digest a d1   b d1: agree",
		"wall time 8.0 s, 2.0 s per pair",
	}
	for _, line := range want {
		if !strings.Contains(out.String(), line) {
			t.Errorf("report lacks %q:\n%s", line, out.String())
		}
	}
}
