package main

import "testing"

// pairsOf zips base and change samples into pairs.
func pairsOf(base, change []float64) [][2]float64 {
	out := make([][2]float64, len(base))
	for i := range base {
		out[i] = [2]float64{base[i], change[i]}
	}
	return out
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		better string
		change []float64
		want   string
	}{
		{"10/10 faster, far past the IQR", "lower", scaled(0.8), "improved"},
		{"10/10 slower, far past the IQR", "lower", scaled(1.25), "regressed"},
		{"higher is better: 10/10 up", "higher", scaled(1.25), "improved"},
		{"higher is better: 10/10 down", "higher", scaled(0.8), "regressed"},
		{"10/10 faster but inside the IQR", "lower", scaled(0.995), "unresolved"},
		{"identical runs", "lower", scaled(1), "unresolved"},
		// 8 wins of 10 falls short of 9 in 10, however far the median moved.
		{"8/10 faster", "lower", []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2, 2}, "unresolved"},
		// 9 wins and a tie: 9 in 10 of all pairs.
		{"9/10 faster and a tie", "lower", []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.98}, "improved"},
		// 8 wins and two ties: ties count for neither side.
		{"8/10 faster and two ties", "lower", []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.02, 0.98}, "unresolved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pairs := pairsOf(base, tc.change)
			if got := verdict(tc.better, compare(tc.better, pairs), len(pairs)); got != tc.want {
				t.Errorf("verdict = %s, want %s (%+v)", got, tc.want, compare(tc.better, pairs))
			}
		})
	}
}
