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

import (
	"math/bits"
	"sync"
)

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

// Advance jumps the generator k steps ahead: afterwards its state equals
// what k successive Uint64 calls would have left (Float64 and Float64s
// consume one step per value too). It costs O(log k) matrix-vector products,
// so a bulk consumer can hand disjoint stretches of one stream to parallel
// copies of a generator and still draw exactly the sequential values.
func (x *Xoshiro256StarStar) Advance(k uint64) {
	for ; k != 0; k &= k - 1 {
		x.s = stepPower(bits.TrailingZeros64(k)).apply(x.s)
	}
}

// xoshiro256**'s state update (the shifts, rotations and xors of Uint64,
// without the output scrambler) is linear over GF(2), so k steps are one
// 256×256 bit matrix T^k. stepPowers[i] holds T^(2^i), squared out lazily
// as far as the largest jump asked for so far; the table is shared by every
// generator in the process.
var (
	stepPowersMu sync.Mutex
	stepPowers   []*bitMatrix
)

// bitMatrix is a 256×256 matrix over GF(2) stored by columns: col[j] is the
// image of the state whose only set bit is bit j (bit j of word j/64).
type bitMatrix struct {
	col [256][4]uint64
}

// apply returns m·s.
func (m *bitMatrix) apply(s [4]uint64) [4]uint64 {
	var out [4]uint64
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			c := &m.col[w*64+bits.TrailingZeros64(word)]
			out[0] ^= c[0]
			out[1] ^= c[1]
			out[2] ^= c[2]
			out[3] ^= c[3]
		}
	}
	return out
}

// stepPower returns T^(2^i).
func stepPower(i int) *bitMatrix {
	stepPowersMu.Lock()
	defer stepPowersMu.Unlock()
	if len(stepPowers) == 0 {
		t := new(bitMatrix)
		for j := range t.col {
			var g Xoshiro256StarStar
			g.s[j/64] = 1 << (j % 64)
			g.Uint64()
			t.col[j] = g.s
		}
		stepPowers = append(stepPowers, t)
	}
	for len(stepPowers) <= i {
		prev := stepPowers[len(stepPowers)-1]
		sq := new(bitMatrix)
		for j := range sq.col {
			sq.col[j] = prev.apply(prev.col[j])
		}
		stepPowers = append(stepPowers, sq)
	}
	return stepPowers[i]
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
