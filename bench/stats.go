package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples. With fewer than 20 samples no tail
// percentile is reported: median, quartiles and the extremes are all there is.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spread
// this program prints is the spread the acceptance procedure computes.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// quantile interpolates at position q·(n+1) of the sorted samples, clamped to
// the extremes.
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
	frac := pos - lo
	return sorted[int(lo)] + frac*(sorted[int(lo)+1]-sorted[int(lo)])
}

func median(samples []float64) float64 { return summarize(samples).Median }

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
