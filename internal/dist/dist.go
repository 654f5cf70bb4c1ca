// Package dist simulates distributed nondeterministic execution — the
// last scenario of the paper's future-work list ("extending the
// applicability of results in this paper to more scenarios, such as …
// distributed systems, by relaxing the system model").
//
// The simulation partitions vertices across W workers (simulated
// machines), each with an unbounded inbox. Monotone propagation
// algorithms (WCC, BFS, SSSP — the Theorem 2 family) run as message
// passing: adopting a better value broadcasts derived values along
// out-edges. The *network* is adversarial in exactly the ways a real
// cluster is and a shared-memory barrier is not:
//
//   - messages are delivered out of order (each worker processes a
//     uniformly random pending message, seeded for reproducibility);
//   - messages may be duplicated (configurable probability).
//
// Message delivery is atomic by construction, so the shared-memory
// per-operation atomicity requirement translates to "no torn messages" —
// trivially satisfied — and the theorem's monotonicity premise does the
// rest: stale or duplicated messages lose to the Better test and the
// computation converges to the same fixed point as a sequential run.
//
// Silently dropping messages is *not* tolerated (a lost improvement is
// never retried), mirroring the push-mode lost-update result (DESIGN.md
// §13). The simulator instead models a lossy network the way real clusters cope with one:
// DropProb discards deliveries, and the sender's ack timeout retransmits
// the same message with backoff (at-least-once delivery). Retransmission
// restores the "no lost update without a retry task" premise, so
// convergence survives arbitrary loss rates below 1.
package dist

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/rng"
	"ndgraph/internal/trace"
)

// sampleWindow is the per-worker delivery count between telemetry samples:
// each simulated machine emits one event per window of messages it
// processes, plus one final aggregate at quiescence.
const sampleWindow = 8192

// Propagation declares a monotone message-passing computation.
type Propagation struct {
	// Init returns vertex v's starting value.
	Init func(v uint32) uint64
	// Better reports whether candidate strictly improves on current.
	Better func(candidate, current uint64) bool
	// Message derives the value sent along canonical edge e when the
	// sending vertex holds val.
	Message func(val uint64, e uint32) uint64
	// Seeds are the vertices whose initial values are broadcast first
	// (every vertex for WCC, the source for BFS/SSSP).
	Seeds []uint32
}

// Options configures the simulated cluster.
type Options struct {
	// Workers is the number of simulated machines; < 1 = GOMAXPROCS.
	Workers int
	// DuplicateProb duplicates each sent message with this probability
	// (at-least-once delivery). Must be in [0, 1).
	DuplicateProb float64
	// DropProb discards each delivery with this probability; the sender's
	// ack timeout then retransmits the message with backoff, so delivery
	// remains at-least-once. Must be in [0, 1).
	DropProb float64
	// Seed drives the delivery-order scrambling, duplication, and drops.
	Seed uint64
	// MaxMessages caps total deliveries; 0 means 1<<26.
	MaxMessages int64
	// Context, when non-nil, cancels the run: workers stop processing,
	// inboxes drain, and Run returns partial values plus the context's
	// error.
	Context context.Context
	// Observer, when non-nil, receives one telemetry event per worker per
	// sampleWindow deliveries plus a final aggregate carrying the run's
	// duplicate and retransmission totals.
	Observer *obs.Observer
	// Trace, when non-nil, records one event per *adoption* (a delivery
	// that improved its destination): iteration 0, worker = the owning
	// machine, Vertex = destination, Writes = 1, Value = the adopted word.
	// The capture order is the run's nondeterministic adoption order.
	Trace *trace.Recorder
}

// Result reports a distributed run.
type Result struct {
	Messages   int64 // messages delivered (including duplicates)
	Duplicates int64 // extra deliveries injected
	Drops      int64 // deliveries lost and retransmitted
	Converged  bool
	Duration   time.Duration
}

type message struct {
	to      uint32
	val     uint64
	attempt uint8 // retransmission count (drives backoff)
}

// backoffCapShift caps the exponential term of the retransmission backoff:
// the deterministic part never exceeds 1<<backoffCapShift yields.
const backoffCapShift = 6

// backoffYields returns how many scheduler yields a retransmission backs
// off before re-entering the inbox: an exponential term in the attempt
// count (capped at 1<<backoffCapShift) plus a uniformly random jitter of
// the same magnitude. The jitter is the point — with a purely deterministic
// schedule, two messages whose retransmissions collided once re-collide on
// every subsequent attempt, exactly the synchronized-retry pathology real
// networks avoid by jittering timeouts. The result lies in [base, 2*base]
// where base = 1 << min(attempt-1, backoffCapShift); attempt 0 (a first
// transmission) backs off not at all.
func backoffYields(attempt uint8, r *rng.Xoshiro256StarStar) int {
	if attempt == 0 {
		return 0
	}
	shift := uint(attempt - 1)
	if shift > backoffCapShift {
		shift = backoffCapShift
	}
	base := 1 << shift
	return base + r.Intn(base+1)
}

// inbox is an unbounded mailbox with random-order removal: the delivery
// scrambler. Unbounded queues keep the simulation deadlock-free (workers
// never block on send).
type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	closed  bool
	r       *rng.Xoshiro256StarStar
}

func newInbox(seed uint64) *inbox {
	ib := &inbox{r: rng.New(seed)}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(m message) {
	ib.mu.Lock()
	ib.pending = append(ib.pending, m)
	ib.mu.Unlock()
	ib.cond.Signal()
}

// take removes a uniformly random pending message; ok is false when the
// inbox has been closed and drained.
func (ib *inbox) take() (message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for len(ib.pending) == 0 && !ib.closed {
		ib.cond.Wait()
	}
	if len(ib.pending) == 0 {
		return message{}, false
	}
	i := ib.r.Intn(len(ib.pending))
	last := len(ib.pending) - 1
	m := ib.pending[i]
	ib.pending[i] = ib.pending[last]
	ib.pending = ib.pending[:last]
	return m, true
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// Run executes the propagation on a simulated cluster and returns the
// converged vertex values.
func Run(g *graph.Graph, p Propagation, opts Options) ([]uint64, Result, error) {
	if g == nil {
		return nil, Result{}, fmt.Errorf("dist: nil graph")
	}
	if p.Init == nil || p.Better == nil || p.Message == nil {
		return nil, Result{}, fmt.Errorf("dist: Propagation requires Init, Better, and Message")
	}
	if opts.DuplicateProb < 0 || opts.DuplicateProb >= 1 {
		return nil, Result{}, fmt.Errorf("dist: DuplicateProb %v out of [0, 1)", opts.DuplicateProb)
	}
	if opts.DropProb < 0 || opts.DropProb >= 1 {
		return nil, Result{}, fmt.Errorf("dist: DropProb %v out of [0, 1)", opts.DropProb)
	}
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers > g.N() && g.N() > 0 {
		opts.Workers = g.N()
	}
	if opts.MaxMessages <= 0 {
		opts.MaxMessages = 1 << 26
	}

	n := g.N()
	values := make([]uint64, n)
	for v := uint32(0); int(v) < n; v++ {
		values[v] = p.Init(v)
	}
	res := Result{Converged: true}
	if n == 0 || len(p.Seeds) == 0 {
		return values, res, nil
	}

	W := opts.Workers
	ownerOf := func(v uint32) int { return int(v) * W / n }
	inboxes := make([]*inbox, W)
	for w := range inboxes {
		inboxes[w] = newInbox(rng.Mix64(opts.Seed + uint64(w)))
	}

	var inflight, delivered, dups, drops atomic.Int64
	var stopped atomic.Bool
	start := time.Now()

	// Per-worker telemetry windows (worker w owns tallies[w]; the final
	// aggregate reads them after the WaitGroup barrier).
	var samples atomic.Int64
	type tally struct {
		delivered, adopted int64
		_                  [48]byte // pad to a cache line against false sharing
	}
	var tallies []tally
	if opts.Observer != nil {
		tallies = make([]tally, W)
	}
	emitSample := func(t *tally, durationNs int64) {
		pending := inflight.Load()
		opts.Observer.Emit(obs.Event{
			Engine:        obs.EngineDist,
			Iter:          samples.Add(1) - 1,
			Scheduled:     pending,
			Updates:       t.adopted,
			Residual:      float64(pending) / float64(n),
			RWConflicts:   -1,
			WWConflicts:   -1,
			DurationNanos: durationNs,
			Messages:      t.delivered,
		})
		t.delivered, t.adopted = 0, 0
	}

	// send routes a message (possibly duplicated) to its owner's inbox.
	// The caller must hold its own rng for the duplication draw.
	send := func(m message, r *rng.Xoshiro256StarStar) {
		if stopped.Load() {
			return
		}
		copies := 1
		if opts.DuplicateProb > 0 && r.Float64() < opts.DuplicateProb {
			copies = 2
			dups.Add(1)
		}
		for c := 0; c < copies; c++ {
			inflight.Add(1)
			inboxes[ownerOf(m.to)].put(m)
		}
	}

	// broadcast sends v's current value along all its out-edges.
	broadcast := func(v uint32, val uint64, r *rng.Xoshiro256StarStar) {
		lo, _ := g.OutEdgeIndex(v)
		for k, d := range g.OutNeighbors(v) {
			send(message{to: d, val: p.Message(val, lo+uint32(k))}, r)
		}
	}

	// Seed the system.
	seedRng := rng.New(rng.Mix64(opts.Seed ^ 0x5eed))
	for _, v := range p.Seeds {
		broadcast(v, values[v], seedRng)
	}
	if inflight.Load() == 0 {
		return values, res, nil
	}

	var wg sync.WaitGroup
	closeAll := func() {
		for _, ib := range inboxes {
			ib.close()
		}
	}
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(rng.Mix64(opts.Seed + 0x9e37 + uint64(w)))
			for {
				m, ok := inboxes[w].take()
				if !ok {
					return
				}
				if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
					stopped.Store(true)
				}
				if !stopped.Load() && opts.DropProb > 0 && r.Float64() < opts.DropProb {
					// Lossy link: this delivery is lost. The sender's ack
					// timeout fires and retransmits the same message after
					// a jittered exponential backoff; the in-flight unit
					// rides the retransmitted copy, so quiescence detection
					// is unaffected.
					drops.Add(1)
					if m.attempt < math.MaxUint8 {
						m.attempt++
					}
					for b, n := 0, backoffYields(m.attempt, r); b < n; b++ {
						runtime.Gosched()
					}
					inboxes[w].put(m)
					continue
				}
				switch {
				case stopped.Load():
					// Draining a stopped run: retire the message unprocessed.
				case delivered.Add(1) > opts.MaxMessages:
					stopped.Store(true)
				default:
					adopted := p.Better(m.val, values[m.to])
					if adopted {
						// Only the owner worker touches values[m.to], so the
						// adopt is race-free.
						values[m.to] = m.val
						if t := opts.Trace; t != nil {
							t.Record(0, w, m.to, 1, m.val)
						}
						broadcast(m.to, m.val, r)
					}
					if tallies != nil {
						t := &tallies[w]
						t.delivered++
						if adopted {
							t.adopted++
						}
						if t.delivered >= sampleWindow {
							emitSample(t, 0)
						}
					}
				}
				if inflight.Add(-1) == 0 {
					closeAll()
				}
			}
		}(w)
	}
	wg.Wait()

	res.Messages = delivered.Load()
	res.Duplicates = dups.Load()
	res.Drops = drops.Load()
	if o := opts.Observer; o != nil {
		// Final aggregate: leftover windows from every worker plus the
		// run-total duplicate/retransmission counts (sampled nowhere else,
		// so the counters stay exact).
		var agg tally
		for w := range tallies {
			agg.delivered += tallies[w].delivered
			agg.adopted += tallies[w].adopted
		}
		o.Emit(obs.Event{
			Engine:        obs.EngineDist,
			Iter:          samples.Add(1) - 1,
			Updates:       agg.adopted,
			RWConflicts:   -1,
			WWConflicts:   -1,
			DurationNanos: time.Since(start).Nanoseconds(),
			Messages:      agg.delivered,
			Duplicates:    res.Duplicates,
			Drops:         res.Drops,
		})
	}
	if stopped.Load() {
		res.Converged = false
		if res.Messages > opts.MaxMessages {
			res.Messages = opts.MaxMessages
		}
	}
	res.Duration = time.Since(start)
	if ctx := opts.Context; ctx != nil && ctx.Err() != nil && !res.Converged {
		return values, res, ctx.Err()
	}
	return values, res, nil
}

// WCC runs distributed weakly-connected components (labels travel both
// directions, so the graph is symmetrized first).
func WCC(g *graph.Graph, opts Options) ([]uint32, Result, error) {
	u := g.Undirected()
	seeds := make([]uint32, u.N())
	for i := range seeds {
		seeds[i] = uint32(i)
	}
	vals, res, err := Run(u, Propagation{
		Init:    func(v uint32) uint64 { return uint64(v) },
		Better:  func(c, cur uint64) bool { return c < cur },
		Message: func(val uint64, _ uint32) uint64 { return val },
		Seeds:   seeds,
	}, opts)
	if err != nil {
		return nil, res, err
	}
	labels := make([]uint32, len(vals))
	for v, w := range vals {
		labels[v] = uint32(w)
	}
	return labels, res, nil
}

// SSSP runs distributed single-source shortest paths over the given
// per-edge weights (canonical edge order of g).
func SSSP(g *graph.Graph, source uint32, weights []float64, opts Options) ([]float64, Result, error) {
	infBits := math.Float64bits(math.Inf(1))
	vals, res, err := Run(g, Propagation{
		Init: func(v uint32) uint64 {
			if v == source {
				return 0
			}
			return infBits
		},
		Better: func(c, cur uint64) bool { return math.Float64frombits(c) < math.Float64frombits(cur) },
		Message: func(val uint64, e uint32) uint64 {
			return math.Float64bits(math.Float64frombits(val) + weights[e])
		},
		Seeds: []uint32{source},
	}, opts)
	if err != nil {
		return nil, res, err
	}
	dist := make([]float64, len(vals))
	for v, w := range vals {
		dist[v] = math.Float64frombits(w)
	}
	return dist, res, nil
}
