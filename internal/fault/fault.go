// Package fault is a seeded, deterministic fault injector for the engines:
// it turns the paper's recovery claims (Lemmas 1–2, Theorem 2) from static
// arguments into executable experiments by deliberately corrupting the
// edge-data plane while a computation runs.
//
// The injector wraps an edgedata.Store and, with configured probabilities,
// perturbs individual operations:
//
//   - torn writes commit a word mixing the 32-bit halves of the old and new
//     values — the corruption per-operation atomicity (Section III) exists
//     to exclude;
//   - dropped writes silently commit the old value — the lost-update
//     outcome of a write-write race;
//   - stale reads observe the pre-write value of the word — the ∥-overlap
//     staleness of the paper's system model;
//   - delays yield the processor mid-operation, widening race windows
//     (straggler simulation);
//   - a crash aborts the run at a configured iteration boundary (simulated
//     worker loss), to be resumed from a checkpoint.
//
// Every injected fault invokes the heal hook installed by the host engine,
// which schedules both endpoints of the affected edge — exactly the
// task-generation rule a *real* racing competitor would have applied. With
// that retry path, Theorem 2 predicts monotone algorithms (WCC, SSSP, BFS)
// reconverge to the sequential fixed point, while non-monotone algorithms
// (Coloring) may converge to corrupted results; the package's tests check
// both directions.
//
// Fault decisions are a pure function of (Seed, operation counter, edge,
// kind), so a single-threaded run under injection is fully reproducible.
package fault

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/rng"
)

// ErrCrash is returned (wrapped) by an engine whose run was killed by an
// injected worker crash. State up to the last checkpoint survives.
var ErrCrash = errors.New("fault: injected worker crash")

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// TornWrite commits a mix of the old and new 32-bit word halves.
	TornWrite Kind = iota
	// DropWrite silently discards a write (the word keeps its old value).
	DropWrite
	// StaleRead returns the word's previous value instead of the current.
	StaleRead
	// Delay yields the processor before the operation (straggler).
	Delay
	numKinds
)

// String names the kind for stats output.
func (k Kind) String() string {
	switch k {
	case TornWrite:
		return "torn-write"
	case DropWrite:
		return "drop-write"
	case StaleRead:
		return "stale-read"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Plan configures an Injector. All probabilities are per individual edge
// operation and must lie in [0, 1).
type Plan struct {
	// Seed drives every fault decision.
	Seed uint64
	// TornWrite is the probability a committed write tears at the 32-bit
	// boundary, mixing old and new halves.
	TornWrite float64
	// DropWrite is the probability a write is lost (the lost-update race).
	DropWrite float64
	// StaleRead is the probability a read observes the word's previous
	// value.
	StaleRead float64
	// Delay is the probability an operation yields first (straggler).
	Delay float64
	// MaxFaults caps the total number of injected faults (delays included);
	// 0 means unlimited. A finite budget guarantees the run eventually
	// proceeds fault-free, so recovery tests terminate deterministically.
	MaxFaults int64
	// CrashIter, when > 0, simulates a worker crash at that iteration
	// boundary: the engine aborts with ErrCrash. The crash fires at most
	// once per Injector, so a resumed run passes the boundary cleanly.
	CrashIter int
}

// Validate reports whether the plan's probabilities are well-formed. Errors
// name the offending field so a misconfigured experiment points at exactly
// the knob to fix.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"TornWrite", p.TornWrite}, {"DropWrite", p.DropWrite}, {"StaleRead", p.StaleRead}, {"Delay", p.Delay}} {
		if pr.v < 0 || pr.v >= 1 {
			return fmt.Errorf("fault: invalid Plan.%s = %v: per-operation probability must be in [0, 1)", pr.name, pr.v)
		}
	}
	if p.MaxFaults < 0 {
		return fmt.Errorf("fault: invalid Plan.MaxFaults = %d: fault budget cannot be negative (0 means unlimited)", p.MaxFaults)
	}
	if p.CrashIter < 0 {
		return fmt.Errorf("fault: invalid Plan.CrashIter = %d: crash iteration cannot be negative (0 disables the crash)", p.CrashIter)
	}
	return nil
}

// Stats tallies the faults an Injector has committed.
type Stats struct {
	TornWrites int64
	DropWrites int64
	StaleReads int64
	Delays     int64
	Crashes    int64
	Healed     int64 // heal-hook invocations (endpoint reschedules)
}

// Total returns the number of value-corrupting faults (tears, drops, stale
// reads — delays and crashes excluded).
func (s Stats) Total() int64 { return s.TornWrites + s.DropWrites + s.StaleReads }

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("%d torn, %d dropped, %d stale, %d delayed, %d crashes",
		s.TornWrites, s.DropWrites, s.StaleReads, s.Delays, s.Crashes)
}

// Injector decides and applies faults. One Injector serves one engine run
// at a time; Wrap may be called repeatedly (the shard engine wraps each
// interval's window store).
type Injector struct {
	plan    Plan
	armed   atomic.Bool
	ops     atomic.Uint64 // per-operation counter feeding the decision hash
	spent   atomic.Int64  // faults charged against MaxFaults
	crashed atomic.Bool
	counts  [numKinds]atomic.Int64
	healed  atomic.Int64

	// onFault is installed by the host engine while quiescent (Arm) and
	// invoked from worker goroutines; it must be safe for concurrent use.
	onFault func(e uint32)
}

// NewInjector builds an injector for the given plan. The injector starts
// disarmed: all operations pass through until the host engine arms it, so
// algorithm Setup never sees faults.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan}, nil
}

// MustInjector is NewInjector for tests and examples with known-good plans.
func MustInjector(plan Plan) *Injector {
	in, err := NewInjector(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the injector's configuration.
func (in *Injector) Plan() Plan { return in.plan }

// Arm enables injection and installs the engine's heal hook (called with
// the canonical index of every faulted edge; the engine reschedules both
// endpoints, simulating the task generation of the phantom competitor the
// fault stands in for). Must be called while no workers are running.
func (in *Injector) Arm(onFault func(e uint32)) {
	in.onFault = onFault
	in.armed.Store(true)
}

// Disarm stops injection; wrapped stores become transparent. The heal hook
// is retained so late stragglers heal rather than crash.
func (in *Injector) Disarm() { in.armed.Store(false) }

// CrashNow reports whether an injected crash should kill the run at
// iteration boundary iter. It fires at most once per Injector.
func (in *Injector) CrashNow(iter int) bool {
	if !in.armed.Load() || in.plan.CrashIter <= 0 || iter != in.plan.CrashIter {
		return false
	}
	return in.crashed.CompareAndSwap(false, true)
}

// Stats returns the fault tallies so far.
func (in *Injector) Stats() Stats {
	s := Stats{
		TornWrites: in.counts[TornWrite].Load(),
		DropWrites: in.counts[DropWrite].Load(),
		StaleReads: in.counts[StaleRead].Load(),
		Delays:     in.counts[Delay].Load(),
		Healed:     in.healed.Load(),
	}
	if in.crashed.Load() {
		s.Crashes = 1
	}
	return s
}

// roll decides whether to inject a fault of the given kind on edge e,
// charging the budget and tallying on success. The decision hashes (seed,
// op counter, edge, kind), so single-threaded runs are reproducible.
func (in *Injector) roll(kind Kind, prob float64, e uint32) bool {
	if prob <= 0 || !in.armed.Load() {
		return false
	}
	k := in.ops.Add(1)
	h := rng.Mix64(in.plan.Seed ^ k*0x9e3779b97f4a7c15 ^ uint64(e)<<40 ^ uint64(kind)<<33)
	if float64(h>>11)/(1<<53) >= prob {
		return false
	}
	if in.plan.MaxFaults > 0 && in.spent.Add(1) > in.plan.MaxFaults {
		return false
	}
	in.counts[kind].Add(1)
	return true
}

// heal invokes the engine's reschedule hook for edge e.
func (in *Injector) heal(e uint32) {
	if in.onFault != nil {
		in.healed.Add(1)
		in.onFault(e)
	}
}

// Wrap returns a store that applies this injector's plan to every Load and
// Store of inner. Fill and Snapshot pass through untouched (they are
// barrier-time, single-threaded operations outside the fault model), as
// does CompareAndSwap (the push-mode extension supplies its own atomicity
// discipline). The wrapper keeps a one-deep per-word write history to serve
// stale reads, seeded from the store's current contents so a stale read
// never fabricates a value outside the algorithm's domain.
func (in *Injector) Wrap(inner edgedata.Store) edgedata.Store {
	return &faultyStore{in: in, inner: inner, prev: inner.Snapshot()}
}

// faultyStore is the injecting edgedata.Store decorator.
type faultyStore struct {
	in    *Injector
	inner edgedata.Store
	prev  []uint64 // previous committed value per word (atomic access)
}

func (s *faultyStore) Len() int            { return s.inner.Len() }
func (s *faultyStore) Mode() edgedata.Mode { return s.inner.Mode() }

func (s *faultyStore) Load(e uint32) uint64 {
	in := s.in
	if in.roll(Delay, in.plan.Delay, e) {
		runtime.Gosched()
	}
	if in.roll(StaleRead, in.plan.StaleRead, e) {
		// The reader observes the pre-write value, as if it overlapped (∥)
		// the competing writer; the heal models that writer's task
		// generation, so the reader is eventually re-run against fresh data.
		in.heal(e)
		return atomic.LoadUint64(&s.prev[e])
	}
	return s.inner.Load(e)
}

func (s *faultyStore) Store(e uint32, v uint64) {
	in := s.in
	if !in.armed.Load() {
		// Setup-time store: commit transparently and collapse the write
		// history onto the committed value, so a stale read after arming
		// observes a genuine past value, never a pre-setup zero.
		s.inner.Store(e, v)
		atomic.StoreUint64(&s.prev[e], v)
		return
	}
	if in.roll(Delay, in.plan.Delay, e) {
		runtime.Gosched()
	}
	old := s.inner.Load(e)
	atomic.StoreUint64(&s.prev[e], old)
	if in.roll(DropWrite, in.plan.DropWrite, e) {
		// Lost update: the phantom competitor's value (the old word) won
		// the race. Heal reschedules both endpoints so the loser retries.
		in.heal(e)
		return
	}
	if in.roll(TornWrite, in.plan.TornWrite, e) {
		// Tear at the 32-bit boundary; which half commits alternates with
		// the operation counter.
		var torn uint64
		if in.ops.Load()&1 == 0 {
			torn = (old &^ uint64(0xFFFFFFFF)) | (v & 0xFFFFFFFF)
		} else {
			torn = (v &^ uint64(0xFFFFFFFF)) | (old & 0xFFFFFFFF)
		}
		s.inner.Store(e, torn)
		in.heal(e)
		return
	}
	s.inner.Store(e, v)
}

func (s *faultyStore) CompareAndSwap(e uint32, old, new uint64) bool {
	return s.inner.CompareAndSwap(e, old, new)
}

// The bulk operations perturb word by word through Load and Store, so a
// bulk access rolls exactly the faults its per-edge equivalent would.

func (s *faultyStore) Gather(dst []uint64, idx []uint32) {
	for i, e := range idx {
		dst[i] = s.Load(e)
	}
}

func (s *faultyStore) LoadRange(dst []uint64, lo uint32) {
	for i := range dst {
		dst[i] = s.Load(lo + uint32(i))
	}
}

func (s *faultyStore) FillRange(lo, hi uint32, v uint64) {
	for e := lo; e < hi; e++ {
		s.Store(e, v)
	}
}

func (s *faultyStore) Fill(v uint64) {
	s.inner.Fill(v)
	for i := range s.prev {
		s.prev[i] = v
	}
}

func (s *faultyStore) Snapshot() []uint64 { return s.inner.Snapshot() }

func (s *faultyStore) SnapshotInto(dst []uint64) []uint64 { return s.inner.SnapshotInto(dst) }

var _ edgedata.Store = (*faultyStore)(nil)
