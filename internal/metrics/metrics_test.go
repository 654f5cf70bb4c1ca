package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"ndgraph/internal/rng"
)

func TestRankOrderDescending(t *testing.T) {
	scores := []float64{0.5, 2.0, 1.0, 2.0}
	order := RankOrder(scores)
	// 1 and 3 tie at 2.0 → ascending id; then 2, then 0.
	want := []uint32{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRankOrderIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		scores := make([]float64, 50)
		for i := range scores {
			scores[i] = r.Float64()
		}
		order := RankOrder(scores)
		seen := make([]bool, len(scores))
		for _, v := range order {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		for i := 1; i < len(order); i++ {
			if scores[order[i-1]] < scores[order[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferenceDegreePaperExample(t *testing.T) {
	// The paper's own example: r1 = {1,2,3,5,7}, r2 = {1,2,3,7,5} → 3.
	r1 := []uint32{1, 2, 3, 5, 7}
	r2 := []uint32{1, 2, 3, 7, 5}
	if got := DifferenceDegree(r1, r2); got != 3 {
		t.Fatalf("DifferenceDegree = %d, want 3", got)
	}
}

func TestDifferenceDegreeIdentical(t *testing.T) {
	a := []uint32{4, 2, 9}
	if got := DifferenceDegree(a, a); got != 3 {
		t.Fatalf("identical orderings: %d, want len", got)
	}
}

func TestDifferenceDegreeFirstElement(t *testing.T) {
	if got := DifferenceDegree([]uint32{1, 2}, []uint32{2, 1}); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}

func TestDifferenceDegreePrefix(t *testing.T) {
	if got := DifferenceDegree([]uint32{1, 2, 3}, []uint32{1, 2}); got != 2 {
		t.Fatalf("prefix: %d, want 2", got)
	}
}

func TestDifferenceDegreeSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := make([]uint32, 20)
		b := make([]uint32, 20)
		for i := range a {
			a[i] = uint32(r.Intn(10))
			b[i] = uint32(r.Intn(10))
		}
		return DifferenceDegree(a, b) == DifferenceDegree(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanPairwiseDifferenceDegree(t *testing.T) {
	o := [][]uint32{
		{1, 2, 3},
		{1, 2, 3},
		{1, 3, 2},
	}
	// Pairs: (0,1)=3, (0,2)=1, (1,2)=1 → mean 5/3.
	want := 5.0 / 3.0
	if got := MeanPairwiseDifferenceDegree(o); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	if MeanPairwiseDifferenceDegree(o[:1]) != 0 {
		t.Fatal("single ordering should give 0")
	}
	if got := PairwiseDifferenceDegrees(o); !slices.Equal(got, []float64{3, 1, 1}) {
		t.Fatalf("pairs = %v, want [3 1 1]", got)
	}
}

func TestMeanCrossDifferenceDegree(t *testing.T) {
	a := [][]uint32{{1, 2, 3}, {1, 2, 3}}
	b := [][]uint32{{1, 3, 2}}
	// The paper's Table III statistic is the mean of the cross pairs: both
	// give 1 → mean 1.
	if got := Summarize(CrossDifferenceDegrees(a, b)).Mean; got != 1 {
		t.Fatalf("cross mean = %v, want 1", got)
	}
	if Summarize(CrossDifferenceDegrees(nil, b)).Mean != 0 {
		t.Fatal("empty group should give 0")
	}
	if got := CrossDifferenceDegrees(a, [][]uint32{{1, 3, 2}, {1, 2, 3}}); !slices.Equal(got, []float64{1, 3, 1, 3}) {
		t.Fatalf("cross pairs = %v, want [1 3 1 3]", got)
	}
}

func TestTopKAgreement(t *testing.T) {
	a := []uint32{1, 2, 3, 4}
	b := []uint32{1, 2, 4, 3}
	if got := TopKAgreement(a, b, 2); got != 1 {
		t.Fatalf("top-2 = %v, want 1", got)
	}
	if got := TopKAgreement(a, b, 4); got != 0.5 {
		t.Fatalf("top-4 = %v, want 0.5", got)
	}
	if got := TopKAgreement(a, b, 0); got != 1 {
		t.Fatalf("k=0 = %v, want 1", got)
	}
	if got := TopKAgreement(a, b, 100); got != 0.5 {
		t.Fatalf("k beyond len = %v, want 0.5", got)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1.5, 2, 1}
	if got := LInfDistance(a, b); got != 2 {
		t.Fatalf("LInf = %v", got)
	}
	if got := L1Distance(a, b); got != 2.5 {
		t.Fatalf("L1 = %v", got)
	}
	for name, f := range map[string]func(){
		"LInf": func() { LInfDistance(a, b[:2]) },
		"L1":   func() { L1Distance(a, b[:2]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", s.StdDev)
	}
	// statistics.quantiles([2, 4, 4, 4, 5, 5, 7, 9], n=4) == [4.0, 4.5, 6.5]
	if s.Q1 != 4 || s.Median != 4.5 || s.Q3 != 6.5 {
		t.Fatalf("quartiles = %v / %v / %v, want 4 / 4.5 / 6.5", s.Q1, s.Median, s.Q3)
	}
	if one := Summarize([]float64{3}); one.Q1 != 3 || one.Median != 3 || one.Q3 != 3 {
		t.Fatalf("single-sample summary = %+v", one)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

func BenchmarkRankOrder(b *testing.B) {
	r := rng.New(1)
	scores := make([]float64, 100000)
	for i := range scores {
		scores[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankOrder(scores)
	}
}

func BenchmarkDifferenceDegree(b *testing.B) {
	r := rng.New(2)
	a := make([]uint32, 100000)
	for i := range a {
		a[i] = uint32(i)
	}
	c := append([]uint32(nil), a...)
	// Perturb the tail so the scan goes deep.
	i, j := len(c)-2, len(c)-1
	c[i], c[j] = c[j], c[i]
	_ = r
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		DifferenceDegree(a, c)
	}
}

func TestSpearmanFootrule(t *testing.T) {
	cases := []struct {
		name string
		a, b []uint32
		want float64
	}{
		{"identical", []uint32{0, 1, 2, 3}, []uint32{0, 1, 2, 3}, 0},
		// Full reversal is the maximal displacement, so it must normalize to
		// exactly 1.0 — for odd n too, where the correct denominator is the
		// integer ⌊n²/2⌋ (n=3: sum |i-j| = 2+0+2 = 4 = ⌊9/2⌋), not n²/2 = 4.5.
		{"even reversal", []uint32{0, 1, 2, 3}, []uint32{3, 2, 1, 0}, 1},
		{"odd reversal", []uint32{0, 1, 2}, []uint32{2, 1, 0}, 1},
		{"odd reversal n=5", []uint32{0, 1, 2, 3, 4}, []uint32{4, 3, 2, 1, 0}, 1},
		// Adjacent swap of n=4: displacement 1+1 over ⌊16/2⌋ = 8.
		{"adjacent swap", []uint32{0, 1, 2, 3}, []uint32{1, 0, 2, 3}, 0.25},
		// Elements absent from either ordering are ignored; the shared set
		// {1, 2} is reversed, n=2, sum 2 over ⌊4/2⌋ = 2.
		{"partial overlap", []uint32{1, 2, 9}, []uint32{2, 1, 7}, 1},
		{"degenerate single", []uint32{5}, []uint32{5}, 0},
		{"degenerate empty", nil, nil, 0},
		{"disjoint", []uint32{1, 2, 3, 4}, []uint32{9, 8}, 0},
	}
	for _, tc := range cases {
		if got := SpearmanFootrule(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: SpearmanFootrule = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpearmanFootruleNeverExceedsOne(t *testing.T) {
	// Every permutation of n=5 must land in [0, 1] — the old float n²/2
	// denominator kept reversals strictly below 1 for odd n.
	perm := []uint32{0, 1, 2, 3, 4}
	base := []uint32{0, 1, 2, 3, 4}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			got := SpearmanFootrule(base, perm)
			if got < 0 || got > 1 {
				t.Fatalf("SpearmanFootrule(%v) = %v, outside [0, 1]", perm, got)
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}
