// Package metrics implements the result-variance measurements of the
// paper's Section V-C: rank orderings of converged PageRank vectors and
// the *difference degree* between two orderings — the minimal index at
// which they disagree (0-based, as in the paper's example where
// r1 = {1,2,3,5,7} and r2 = {1,2,3,7,5} have difference degree 3). For
// PageRank a larger difference degree is better: the variation is confined
// to less significant pages.
package metrics

import (
	"math"
	"sort"
)

// RankOrder returns vertex ids sorted by descending score; ties broken by
// ascending vertex id so that orderings are total and comparisons
// deterministic.
func RankOrder(scores []float64) []uint32 {
	order := make([]uint32, len(scores))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return a < b
	})
	return order
}

// DifferenceDegree returns the smallest index at which the two orderings
// differ, or min(len) if one is a prefix of the other (len if identical).
// Orderings of different lengths are compared over the shared prefix.
func DifferenceDegree(a, b []uint32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// PairwiseDifferenceDegrees returns DifferenceDegree for each of the
// C(k,2) pairs of the given orderings — the samples behind the paper's
// Table II statistic ("each figure is the average of 10 (i.e., C(5,2))
// difference degrees").
func PairwiseDifferenceDegrees(orderings [][]uint32) []float64 {
	var out []float64
	for i := range orderings {
		for j := i + 1; j < len(orderings); j++ {
			out = append(out, float64(DifferenceDegree(orderings[i], orderings[j])))
		}
	}
	return out
}

// CrossDifferenceDegrees returns DifferenceDegree for each of the |a|×|b|
// cross pairs of two groups of orderings — the samples behind the paper's
// Table III statistic (difference degrees "between different
// configurations ... computed by averaging the difference degrees
// pairwise").
func CrossDifferenceDegrees(a, b [][]uint32) []float64 {
	var out []float64
	for _, x := range a {
		for _, y := range b {
			out = append(out, float64(DifferenceDegree(x, y)))
		}
	}
	return out
}

// MeanPairwiseDifferenceDegree is the paper's Table II statistic, the mean
// of PairwiseDifferenceDegrees. It returns 0 for fewer than two orderings.
func MeanPairwiseDifferenceDegree(orderings [][]uint32) float64 {
	return Summarize(PairwiseDifferenceDegrees(orderings)).Mean
}

// TopKAgreement reports the fraction of the top-k positions at which two
// orderings hold the same vertex — used for the paper's observation that
// "for the pages with higher rank (ranking number smaller than 100), the
// results from all these selected scenarios are identical".
func TopKAgreement(a, b []uint32, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > len(a) {
		k = len(a)
	}
	if k > len(b) {
		k = len(b)
	}
	if k == 0 {
		return 1
	}
	same := 0
	for i := 0; i < k; i++ {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(k)
}

// LInfDistance returns the maximum absolute component difference of two
// equally sized vectors. Panics on length mismatch.
func LInfDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("metrics: LInfDistance length mismatch")
	}
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// L1Distance returns the sum of absolute component differences. Panics on
// length mismatch.
func L1Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("metrics: L1Distance length mismatch")
	}
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

// Summary holds basic descriptive statistics. Median and the quartiles
// use the exclusive method of Python's statistics.quantiles(xs, n=4), the
// one the benchmark harness (bench/stats.go) reports spreads with.
type Summary struct {
	Min, Max, Mean, StdDev float64
	Median, Q1, Q3         float64
	N                      int
}

// Summarize computes descriptive statistics of xs (population standard
// deviation). An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median, s.Q1, s.Q3 = quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	s.StdDev = math.Sqrt(varSum / float64(len(xs)))
	return s
}

// quantile interpolates at position q·(n+1) of the sorted samples, clamped
// to the extremes.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := math.Floor(pos)
	return sorted[int(lo)] + (pos-lo)*(sorted[int(lo)+1]-sorted[int(lo)])
}

// SpearmanFootrule returns the normalized sum of absolute rank
// displacements between two orderings of the same element set: 0 means
// identical order, 1 the maximal possible displacement. Elements missing
// from either ordering are ignored. Complements DifferenceDegree: the
// difference degree locates the *first* divergence, the footrule measures
// the *total* movement (the paper's "variation happens in pages of less
// significance" has small footrule but early-vs-late first divergence).
func SpearmanFootrule(a, b []uint32) float64 {
	pos := make(map[uint32]int, len(b))
	for i, v := range b {
		pos[v] = i
	}
	n := 0
	var sum int64
	for i, v := range a {
		j, ok := pos[v]
		if !ok {
			continue
		}
		n++
		d := i - j
		if d < 0 {
			d = -d
		}
		sum += int64(d)
	}
	if n < 2 {
		return 0
	}
	// Maximal footrule for n elements is ⌊n²/2⌋ — the integer floor, so an
	// odd-length full reversal normalizes to exactly 1.0.
	max := float64((n * n) / 2)
	return float64(sum) / max
}
