// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout ndgraph.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every synthetic graph, every SSSP edge weight, and every workload shuffle
// must be derivable from a single seed so that deterministic and
// nondeterministic executions of an algorithm observe the *same* input. The
// standard library's math/rand/v2 would work, but a hand-rolled SplitMix64 /
// xoshiro256** pair keeps the generators allocation-free, trivially
// serializable, and stable across Go releases.
package rng

import "math"

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea, and Flood.
// It is used both as a standalone generator for cheap hashing-style draws and
// as the recommended seeder for Xoshiro256StarStar.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x without advancing any state.
// It is a high-quality stateless 64-bit mixer, handy for deriving per-item
// seeds (e.g. one seed per vertex) from a master seed.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256StarStar is the xoshiro256** 1.0 generator of Blackman and Vigna.
// It has a 256-bit state, passes BigCrush, and is the workhorse generator for
// graph synthesis.
type Xoshiro256StarStar struct {
	s [4]uint64
}

// New returns a Xoshiro256StarStar seeded from seed via SplitMix64, as the
// xoshiro authors recommend. A zero seed is valid.
func New(seed uint64) *Xoshiro256StarStar {
	sm := NewSplitMix64(seed)
	var x Xoshiro256StarStar
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	// Guard against the (astronomically unlikely via SplitMix, but cheap to
	// exclude) all-zero state, which is the one fixed point of xoshiro.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the sequence.
func (x *Xoshiro256StarStar) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (x *Xoshiro256StarStar) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits.
	threshold := -n % n // == (2^64 - n) % n
	for {
		v := x.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro256StarStar) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256StarStar) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Float64s fills dst with the next len(dst) values of the Float64
// sequence: afterwards dst[i] equals what the i-th of len(dst) successive
// Float64 calls would have returned. It keeps the state in registers for
// the whole fill, so bulk consumers (RMAT draws 2·levels per edge) skip a
// call per value.
func (x *Xoshiro256StarStar) Float64s(dst []float64) {
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	for i := range dst {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		dst[i] = float64(result>>11) / (1 << 53)
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}

// Perm returns a deterministic pseudo-random permutation of [0, n) using the
// Fisher–Yates shuffle.
func (x *Xoshiro256StarStar) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (x *Xoshiro256StarStar) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a normally distributed value (mean 0, stddev 1) using
// the Marsaglia polar method.
func (x *Xoshiro256StarStar) NormFloat64() float64 {
	for {
		u := 2*x.Float64() - 1
		v := 2*x.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (x *Xoshiro256StarStar) ExpFloat64() float64 {
	for {
		f := x.Float64()
		if f > 0 {
			return -math.Log(f)
		}
	}
}

// Jump advances the generator 2^128 steps, equivalent to 2^128 calls to
// Uint64. It can be used to generate 2^128 non-overlapping subsequences for
// parallel workers that must draw from one logical stream.
func (x *Xoshiro256StarStar) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= x.s[0]
				s1 ^= x.s[1]
				s2 ^= x.s[2]
				s3 ^= x.s[3]
			}
			x.Uint64()
		}
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}

// Fork returns a new generator whose stream is statistically independent of
// the receiver's: the child is seeded from the parent's next output mixed
// through SplitMix64.
func (x *Xoshiro256StarStar) Fork() *Xoshiro256StarStar {
	return New(Mix64(x.Uint64()))
}
