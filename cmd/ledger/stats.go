package main

import (
	"math"
	"slices"
)

// quartilesOf returns the 25th, 50th and 75th percentiles of xs, each
// interpolated linearly between the order statistics around it.
func quartilesOf(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// shift returns the Hodges–Lehmann estimate of how far b sits above a
// over paired runs, the median of the Walsh averages (d_i + d_j)/2,
// i ≤ j, of the per-pair differences d_i = b_i − a_i, and the interval
// [W(k), W(N+1−k)] of the N = n(n+1)/2 sorted averages that the exact
// Wilcoxon signed-rank distribution gives at two-sided level alpha, with
// the confidence it reaches. A pair's two runs sit next to each other, so
// drift on the host moves both and cancels in d_i. ok is false when the
// pairs are too few for any such k.
func shift(a, b []float64, alpha float64) (est, lo, hi, conf float64, ok bool) {
	w := make([]float64, 0, len(a)*(len(a)+1)/2)
	for i := range a {
		for j := i; j < len(a); j++ {
			w = append(w, (b[i]-a[i]+b[j]-a[j])/2)
		}
	}
	est = quartilesOf(w)[1]
	k, conf := critical(signedRankCounts(len(a)), alpha)
	if k == 0 {
		return est, math.Inf(-1), math.Inf(1), 1, false
	}
	slices.Sort(w)
	return est, w[k-1], w[len(w)-k], conf, true
}

// critical returns the largest k with P(T ≤ k−1) ≤ alpha/2, where
// counts[t] is how many equally likely outcomes give the statistic T = t
// under the null hypothesis, and the two-sided confidence
// 1 − 2·P(T ≤ k−1) of the interval it cuts.
func critical(counts []float64, alpha float64) (k int, conf float64) {
	var total, below float64
	for _, c := range counts {
		total += c
	}
	for t, c := range counts {
		if (below+c)/total > alpha/2 {
			break
		}
		below, k = below+c, t+1
	}
	return k, 1 - 2*below/total
}

// signedRankCounts returns, for each t in 0..n(n+1)/2, how many of the
// 2^n ways to sign the ranks 1..n give positive ranks that sum to t: the
// coefficients of (1 + q)(1 + q²)…(1 + qⁿ).
func signedRankCounts(n int) []float64 {
	c := make([]float64, n*(n+1)/2+1)
	c[0] = 1
	for r := 1; r <= n; r++ {
		for t := r * (r + 1) / 2; t >= r; t-- {
			c[t] += c[t-r]
		}
	}
	return c
}
