// Package edgedata holds the mutable per-edge data words and implements the
// paper's three methods of guaranteeing the atomicity of individual reads
// and writes (Section III):
//
//  1. explicit locking/unlocking of the edge data (ModeLocked);
//  2. leveraging architecture support — word-aligned data within a single
//     cache line, whose transfer is atomic (ModeAligned);
//  3. leveraging language support — atomic primitives (ModeAtomic; Go's
//     sync/atomic is sequentially consistent, the closest the language
//     offers to C++ memory_order_relaxed).
//
// Every edge carries exactly one 64-bit word of mutable data. Algorithms
// encode their per-edge payload (a float weight for PageRank, a component
// label for WCC, a distance for SSSP/BFS) into that word with the
// conversion helpers in this package. Restricting mutable edge state to one
// aligned word is what makes method 2 sound: a 64-bit aligned load or store
// never tears on the platforms Go supports, so under nondeterministic
// execution a racing edge commits to one of the competing values — exactly
// the guarantee Lemmas 1 and 2 of the paper require. (These are still data
// races by the letter of the Go memory model; they are the *benign* races
// the paper studies. Tests that run under -race use ModeAtomic or
// ModeLocked.)
package edgedata

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Mode selects the atomicity-guaranteeing method for a Store.
type Mode int

const (
	// ModeSequential performs plain loads and stores with no
	// synchronization of any kind. Valid only for single-threaded
	// (deterministic) execution.
	ModeSequential Mode = iota
	// ModeLocked guards every read and write with a per-edge mutex — the
	// paper's explicit locking/unlocking method (highest overhead).
	ModeLocked
	// ModeAligned performs plain 64-bit aligned loads and stores, relying
	// on the hardware's cache-line transfer atomicity — the paper's
	// architecture-support method (fastest, benign data races).
	ModeAligned
	// ModeAtomic uses sync/atomic operations — the paper's
	// language/compiler-support method.
	ModeAtomic
	numModes
)

// String returns the mode's name as used in harness output.
func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "seq"
	case ModeLocked:
		return "lock"
	case ModeAligned:
		return "arch"
	case ModeAtomic:
		return "atomic"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode maps a name produced by String back to a Mode.
func ParseMode(s string) (Mode, error) {
	for m := Mode(0); m < numModes; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("edgedata: unknown mode %q", s)
}

// Store is a flat array of one mutable 64-bit word per edge, indexed by the
// canonical edge index of package graph. Load and Store are individually
// atomic according to the Store's Mode; no larger granularity is
// synchronized — that is the paper's minimal-granularity atomicity model.
type Store interface {
	// Len returns the number of edge slots.
	Len() int
	// Load reads the word of edge e.
	Load(e uint32) uint64
	// Store writes the word of edge e.
	Store(e uint32, v uint64)
	// CompareAndSwap atomically replaces edge e's word with new if it
	// equals old, reporting success. Used by the push-mode extension;
	// on ModeSequential and ModeAligned it is implemented without
	// hardware atomicity and is only valid single-threaded.
	CompareAndSwap(e uint32, old, new uint64) bool
	// Gather reads the words of edges idx[i] into dst[i]; len(dst) must be
	// at least len(idx). Each word is loaded individually with the mode's
	// atomicity, in index order — a Gather is len(idx) Loads behind one
	// call, NOT a snapshot: words may change between the individual loads.
	Gather(dst []uint64, idx []uint32)
	// LoadRange reads the words of the contiguous edges lo, lo+1, … into
	// dst (len(dst) words), with the same per-word contract as Gather.
	LoadRange(dst []uint64, lo uint32)
	// FillRange writes v to every edge in [lo, hi), each word stored
	// individually with the mode's atomicity, in ascending order: hi-lo
	// Stores behind one call, safe for concurrent use (unlike Fill).
	FillRange(lo, hi uint32, v uint64)
	// Fill sets every slot to v. Not concurrency-safe; initialization and
	// barrier-time use only.
	Fill(v uint64)
	// Snapshot copies all slots into a fresh slice. Not concurrency-safe;
	// barrier-time use only.
	Snapshot() []uint64
	// SnapshotInto copies all slots into dst, reallocating only when dst's
	// capacity is insufficient, and returns the filled slice (dst may be
	// nil). It is the allocation-free Snapshot for per-iteration use: the
	// engine passes the previous iteration's buffer back in. Not
	// concurrency-safe; barrier-time use only.
	SnapshotInto(dst []uint64) []uint64
	// Mode reports the atomicity method this store implements.
	Mode() Mode
}

// New returns a Store with n slots implementing the given mode, with all
// slots zero.
func New(mode Mode, n int) Store {
	if n < 0 {
		panic("edgedata: negative store size")
	}
	switch mode {
	case ModeSequential:
		return &plainStore{words: make([]uint64, n), mode: ModeSequential}
	case ModeAligned:
		return &plainStore{words: make([]uint64, n), mode: ModeAligned}
	case ModeAtomic:
		return &atomicStore{words: make([]uint64, n)}
	case ModeLocked:
		return &lockedStore{words: make([]uint64, n), locks: make([]sync.Mutex, n)}
	default:
		panic(fmt.Sprintf("edgedata: unknown mode %d", int(mode)))
	}
}

// plainStore backs both ModeSequential and ModeAligned: plain loads and
// stores on a []uint64, which Go guarantees to be 8-byte aligned. The two
// modes differ only in intent: Sequential promises single-threaded use,
// Aligned deliberately allows benign word-level races.
type plainStore struct {
	words []uint64
	mode  Mode
}

func (s *plainStore) Len() int                 { return len(s.words) }
func (s *plainStore) Load(e uint32) uint64     { return s.words[e] }
func (s *plainStore) Store(e uint32, v uint64) { s.words[e] = v }
func (s *plainStore) CompareAndSwap(e uint32, old, new uint64) bool {
	if s.words[e] != old {
		return false
	}
	s.words[e] = new
	return true
}
func (s *plainStore) Gather(dst []uint64, idx []uint32) {
	dst = dst[:len(idx)]
	for i, e := range idx {
		dst[i] = s.words[e]
	}
}
func (s *plainStore) LoadRange(dst []uint64, lo uint32) {
	// An explicit loop, not copy: memmove may use wider-than-word
	// transfers, and the contract is one untorn 64-bit load per word.
	ws := s.words[lo : int(lo)+len(dst)]
	for i, w := range ws {
		dst[i] = w
	}
}
func (s *plainStore) FillRange(lo, hi uint32, v uint64) {
	ws := s.words[lo:hi]
	for i := range ws {
		ws[i] = v
	}
}
func (s *plainStore) Fill(v uint64) {
	for i := range s.words {
		s.words[i] = v
	}
}
func (s *plainStore) Snapshot() []uint64 {
	return s.SnapshotInto(nil)
}
func (s *plainStore) SnapshotInto(dst []uint64) []uint64 {
	dst = sized(dst, len(s.words))
	copy(dst, s.words)
	return dst
}
func (s *plainStore) Mode() Mode { return s.mode }

// sized returns dst resized to n slots, reallocating only when its
// capacity is insufficient.
func sized(dst []uint64, n int) []uint64 {
	if cap(dst) < n {
		return make([]uint64, n)
	}
	return dst[:n]
}

// atomicStore implements ModeAtomic with sync/atomic word operations.
type atomicStore struct {
	words []uint64
}

func (s *atomicStore) Len() int                 { return len(s.words) }
func (s *atomicStore) Load(e uint32) uint64     { return atomic.LoadUint64(&s.words[e]) }
func (s *atomicStore) Store(e uint32, v uint64) { atomic.StoreUint64(&s.words[e], v) }
func (s *atomicStore) CompareAndSwap(e uint32, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&s.words[e], old, new)
}
func (s *atomicStore) Gather(dst []uint64, idx []uint32) {
	dst = dst[:len(idx)]
	for i, e := range idx {
		dst[i] = atomic.LoadUint64(&s.words[e])
	}
}
func (s *atomicStore) LoadRange(dst []uint64, lo uint32) {
	ws := s.words[lo : int(lo)+len(dst)]
	for i := range ws {
		dst[i] = atomic.LoadUint64(&ws[i])
	}
}
func (s *atomicStore) FillRange(lo, hi uint32, v uint64) {
	ws := s.words[lo:hi]
	for i := range ws {
		atomic.StoreUint64(&ws[i], v)
	}
}

// Fill and SnapshotInto run only at a barrier, when no worker touches the
// words and the barrier orders them against every atomic access, so they
// are a plain loop and a copy: an atomic store is an XCHG per word on amd64.
func (s *atomicStore) Fill(v uint64) {
	for i := range s.words {
		s.words[i] = v
	}
}
func (s *atomicStore) Snapshot() []uint64 {
	return s.SnapshotInto(nil)
}
func (s *atomicStore) SnapshotInto(dst []uint64) []uint64 {
	dst = sized(dst, len(s.words))
	copy(dst, s.words)
	return dst
}
func (s *atomicStore) Mode() Mode { return ModeAtomic }

// lockedStore implements ModeLocked: one mutex per edge, acquired around
// every individual load and store, exactly as the paper's explicit
// locking/unlocking method prescribes ("a lock is defined for each edge,
// and an access to the edge must first acquire the lock").
type lockedStore struct {
	words []uint64
	locks []sync.Mutex
}

func (s *lockedStore) Len() int { return len(s.words) }
func (s *lockedStore) Load(e uint32) uint64 {
	s.locks[e].Lock()
	v := s.words[e]
	s.locks[e].Unlock()
	return v
}
func (s *lockedStore) Store(e uint32, v uint64) {
	s.locks[e].Lock()
	s.words[e] = v
	s.locks[e].Unlock()
}
func (s *lockedStore) CompareAndSwap(e uint32, old, new uint64) bool {
	s.locks[e].Lock()
	defer s.locks[e].Unlock()
	if s.words[e] != old {
		return false
	}
	s.words[e] = new
	return true
}
func (s *lockedStore) Gather(dst []uint64, idx []uint32) {
	dst = dst[:len(idx)]
	for i, e := range idx {
		dst[i] = s.Load(e)
	}
}
func (s *lockedStore) LoadRange(dst []uint64, lo uint32) {
	for i := range dst {
		dst[i] = s.Load(lo + uint32(i))
	}
}
func (s *lockedStore) FillRange(lo, hi uint32, v uint64) {
	for e := lo; e < hi; e++ {
		s.Store(e, v)
	}
}
func (s *lockedStore) Fill(v uint64) {
	for i := range s.words {
		s.words[i] = v
	}
}
func (s *lockedStore) Snapshot() []uint64 {
	return s.SnapshotInto(nil)
}
func (s *lockedStore) SnapshotInto(dst []uint64) []uint64 {
	dst = sized(dst, len(s.words))
	copy(dst, s.words)
	return dst
}
func (s *lockedStore) Mode() Mode { return ModeLocked }

// Word encoding helpers. Algorithms store one of these payload types per
// edge; keeping the conversions here concentrates all bit-punning in one
// audited place.

// FromFloat64 encodes a float64 payload.
func FromFloat64(f float64) uint64 { return math.Float64bits(f) }

// ToFloat64 decodes a float64 payload.
func ToFloat64(w uint64) float64 { return math.Float64frombits(w) }

// Inf is the encoded "infinite distance" sentinel used by SSSP and BFS.
var Inf = FromFloat64(math.Inf(1))
