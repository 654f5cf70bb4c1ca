// Package frontier provides the vertex-set data structures used by the
// scheduling layer: plain and atomically updatable bitsets, plus a
// double-buffered Frontier that implements the paper's task-generation rule
// ("if f(v) updates an incident edge of u during iteration n, u joins
// S_{n+1}").
//
// Bitsets are the natural representation for scheduled sets S_n because the
// engine dispatches scheduled vertices in ascending label order (the paper's
// small-label-first rule); iterating a bitset yields exactly that order.
package frontier

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitset is a fixed-capacity set of vertex IDs in [0, Len()).
//
// The plain mutators (Set, Clear, ...) are not safe for concurrent use;
// SetAtomic is safe to mix with itself and with concurrent readers that
// tolerate racing observations.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset with capacity for n elements.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("frontier: negative bitset size")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the bitset (the universe size, not the count
// of set bits — see Count).
func (b *Bitset) Len() int { return b.n }

// Set marks i as a member.
func (b *Bitset) Set(i int) {
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear removes i.
func (b *Bitset) Clear(i int) {
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether i is a member.
func (b *Bitset) Test(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// SetAtomic marks i as a member using an atomic read-modify-write, safe for
// concurrent use by multiple goroutines. It reports whether the bit was
// newly set (false if it was already a member), enabling exactly-once
// claiming of vertices. Its one caller is Frontier.Schedule, which no
// engine calls any more; both go when the benchmark's frontier micro rows
// stop timing them (ROADMAP item 1(g)).
func (b *Bitset) SetAtomic(i int) bool {
	addr := &b.words[i/wordBits]
	mask := uint64(1) << uint(i%wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// SetAll marks every element of the universe as a member.
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// ClearAll empties the set.
func (b *Bitset) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trimTail zeroes bits beyond n in the final word so Count and iteration
// never observe phantom members.
func (b *Bitset) trimTail() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of members.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// moveInto adds every member to dst and empties the receiver, writing
// only the words that hold members. Capacities must match.
func (b *Bitset) moveInto(dst *Bitset) {
	if b.n != dst.n {
		panic("frontier: moveInto size mismatch")
	}
	for i, w := range b.words {
		if w != 0 {
			dst.words[i] |= w
			b.words[i] = 0
		}
	}
}

// ForEach calls fn for each member in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// AppendMembers appends the members in ascending order to dst and returns
// the extended slice. Passing a reusable dst avoids per-iteration
// allocations in the scheduler hot path.
func (b *Bitset) AppendMembers(dst []int) []int {
	b.ForEach(func(i int) { dst = append(dst, i) })
	return dst
}
