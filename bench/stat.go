package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"hatrpc/internal/stats"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the q-th percentile (q in [0,100]) by the repo's own
// rule (stats.Sample: linear interpolation between closest ranks). The
// input is not modified.
func percentile(xs []float64, q float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(q)
}

// tailLadder is the set of tail percentiles a latency sample may report.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile is the percentile rule: the highest rung of the ladder
// that still has at least ten samples beyond it, so the reported tail is
// never set by a handful of outliers. n < 20 supports only the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		// Compared in tenths of a percent so 99.9 is exact in integers.
		if n*(1000-int(math.Round(q*10))) >= 10*1000 {
			best = q
		}
	}
	return best
}

// spread is the distance between the first and third quartile as a share
// of the median, computed the way Python's statistics.quantiles(n=4)
// (exclusive method) does — the rule the benchmark contract uses.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// simDigest fingerprints the simulated-clock metrics of one repeat:
// FNV-1a over "name=bits" in sorted name order, so two repeats agree
// exactly when every sim value is bit-identical.
func simDigest(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, k := range names {
		fmt.Fprintf(h, "%s=%016x;", k, math.Float64bits(m[k]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// firstDiff names the first metric (sorted order) whose value differs
// between two sim-metric sets, or "" when they agree.
func firstDiff(a, b map[string]float64) string {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return k
		}
	}
	return ""
}
