package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for seed 1234567 computed from the canonical C
	// implementation of SplitMix64.
	s := NewSplitMix64(1234567)
	want := []uint64{
		0x599ed017fb08fc85,
		0x2c73f08458540fa5,
		0x883ebce5a3f27c77,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("SplitMix64(1234567) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64ZeroSeedIsValid(t *testing.T) {
	s := NewSplitMix64(0)
	a, b := s.Uint64(), s.Uint64()
	if a == 0 && b == 0 {
		t.Fatal("zero-seeded SplitMix64 produced zeros")
	}
	if a == b {
		t.Fatal("zero-seeded SplitMix64 produced repeated value")
	}
}

func TestMix64MatchesStateless(t *testing.T) {
	// Mix64(seed) must equal the first output of a SplitMix64 seeded with seed.
	f := func(seed uint64) bool {
		return Mix64(seed) == NewSplitMix64(seed).Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("same-seed generators diverged at step %d: %#x vs %#x", i, x, y)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	x := New(7)
	for _, n := range []uint64{1, 2, 3, 7, 10, 100, 1 << 20, 1<<63 + 3} {
		for i := 0; i < 200; i++ {
			if v := x.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(-1) did not panic")
		}
	}()
	New(1).Intn(-1)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check on 10 buckets.
	x := New(99)
	const buckets, draws = 10, 100000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[x.Uint64n(buckets)]++
	}
	expect := float64(draws) / buckets
	for b, c := range count {
		if math.Abs(float64(c)-expect) > 0.05*expect {
			t.Errorf("bucket %d: %d draws, expected about %.0f", b, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	x := New(3)
	for i := 0; i < 10000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

// TestFloat64sMatchesFloat64 pins the bulk draw to the one-at-a-time
// sequence, including across fills of different lengths and interleaved
// single draws.
func TestFloat64sMatchesFloat64(t *testing.T) {
	bulk, single := New(42), New(42)
	for _, n := range []int{0, 1, 36, 7, 1000} {
		buf := make([]float64, n)
		bulk.Float64s(buf)
		for i, got := range buf {
			if want := single.Float64(); got != want {
				t.Fatalf("fill of %d: value %d = %v, want %v", n, i, got, want)
			}
		}
		if a, b := bulk.Float64(), single.Float64(); a != b {
			t.Fatalf("after a fill of %d: Float64 = %v, want %v", n, a, b)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	x := New(5)
	a := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range a {
		sum += v
	}
	x.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	got := 0
	for _, v := range a {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	x := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := x.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want about 1", variance)
	}
}

func TestExpFloat64Positive(t *testing.T) {
	x := New(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := x.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Errorf("exponential mean = %v, want about 1", mean)
	}
}

func TestJumpChangesStream(t *testing.T) {
	a, b := New(21), New(21)
	b.Jump()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("jumped generator matched original on %d/100 outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(33)
	child := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked generator matched parent on %d/100 outputs", same)
	}
}

func TestForkDeterminism(t *testing.T) {
	c1 := New(44).Fork()
	c2 := New(44).Fork()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("forks of identical parents diverged")
		}
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64()
	}
	_ = sink
}

func BenchmarkXoshiroUint64n(b *testing.B) {
	x := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64n(1000003)
	}
	_ = sink
}
