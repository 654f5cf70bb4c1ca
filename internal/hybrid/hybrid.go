// Package hybrid implements a direction-optimizing executor: at every
// iteration barrier it chooses push (relax the out-edges of the scheduled
// set, CAS combine — the Ligra-style discipline) or pull
// (every vertex gathers offers from its in-neighbors that are scheduled,
// merging monotonically — the paper's pull-mode edge scenario) based on
// Beamer-style frontier-density thresholds.
//
// Push costs O(out-degree of the frontier) edge relaxations but pays a
// CAS per improving offer, and on a dense frontier most CASes contend for
// the same hot destinations. Pull costs O(m) in-edge membership tests but
// writes each vertex word at most once per iteration, with no CAS at all
// — cheaper exactly when the frontier is dense. The crossover is the
// classic direction-optimizing BFS result (Beamer et al., and Besta et
// al.'s push-vs-pull analysis in PAPERS.md): switch to pull when the
// frontier's unexplored out-edge work exceeds a fraction 1/alpha of the
// remaining in-edge work, and back to push when the frontier shrinks
// below n/beta vertices.
//
// Why switching is safe: both directions relax the same edge set {(u,v) :
// u scheduled} with the same Kernel.Message/Better pair over the same
// canonical edge indices, and the merge is monotone. Under the paper's
// Theorem 2 (absolute convergence of monotone min-merge), any interleaving
// — including a fresh same-iteration value observed by a pull gather —
// converges to the unique fixed point, so every direction sequence yields
// results byte-identical to the deterministic core engine. The
// differential suite pins exactly that.
package hybrid

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/frontier"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/trace"
)

// Direction is the edge-traversal direction of one iteration.
type Direction uint8

const (
	// Push relaxes the out-edges of scheduled vertices (sparse frontier).
	Push Direction = iota
	// Pull has every vertex gather from scheduled in-neighbors (dense
	// frontier).
	Pull
)

// String names the direction as tagged on telemetry events.
func (d Direction) String() string {
	if d == Push {
		return "push"
	}
	return "pull"
}

// Stats is the barrier-time snapshot a Policy decides from. All fields
// are O(1) to produce: the frontier maintains its cardinality and
// scheduled out-degree at Schedule time (PR 7's accounting fix), and the
// engine tracks the in-degree of the never-yet-scheduled region.
type Stats struct {
	// Iter is the upcoming iteration index.
	Iter int
	// FrontierSize is |S_n|.
	FrontierSize int
	// FrontierOutDeg is the summed out-degree of S_n — the edge
	// relaxations a push iteration would attempt.
	FrontierOutDeg int64
	// RemainingInDeg is the summed in-degree of vertices that have never
	// been scheduled — Beamer's unexplored-region edge count, the work a
	// pull iteration could still usefully gather.
	RemainingInDeg int64
	// BottomUp reports that the kernel declares FirstOfferWins, so a pull
	// iteration runs the skip-reached, stop-at-first-scheduled-neighbor
	// bottom-up sweep whose cost the Beamer thresholds model. Without it
	// a pull iteration is a full monotone gather that streams every
	// in-edge of every vertex regardless of frontier shape — measured
	// never cheaper than pushing the frontier's out-edges on the
	// benchmark graphs — so the default policy declines to pull.
	BottomUp bool
	// N and M are the graph's vertex and edge counts.
	N, M int
	// Growing reports whether the frontier is larger than the previous
	// iteration's — Beamer's growing-phase guard, which keeps shrinking
	// endgame frontiers (whose remaining in-degree also tends to zero)
	// from flipping to pull.
	Growing bool
	// Prev is the previous iteration's direction (Push at iteration 0),
	// for hysteresis.
	Prev Direction
}

// Policy chooses the direction for one iteration from its barrier stats.
type Policy func(Stats) Direction

// Default Beamer thresholds: alpha divides the remaining in-edge work to
// get the push-to-pull crossover, beta divides n for the pull-to-push
// return. The values are Beamer's published tuning (alpha=14, beta=24),
// which transfer well because they express ratios of edge work, not
// absolute sizes.
const (
	DefaultAlpha = 14
	DefaultBeta  = 24
)

// BeamerPolicy returns the classic direction-optimizing heuristic with
// hysteresis: while pushing, switch to pull when the frontier is growing
// and its out-edge work exceeds a pull sweep's cost divided by alpha;
// while pulling, return to push when the frontier drops below n/beta
// vertices. Two refinements to Beamer's published m_f > m_u/alpha:
//
//   - A pull sweep reads every vertex word once before it touches any
//     edge, so the cost model is RemainingInDeg + N rather than the
//     edge-only m_u — on graphs with m ~ n (web-google) the pure edge
//     ratio recommends pulls whose O(n) scan can never pay for itself.
//   - Pull is only considered for BottomUp kernels. alpha amortizes the
//     unexplored region's in-degree over the bottom-up sweep's early
//     exits; a full-gather pull has no early exit and streams all m
//     in-edges every iteration, which measures slower than any push on
//     every benchmark graph, so full-gather kernels always push unless a
//     custom policy forces otherwise.
//
// alpha or beta <= 0 select the defaults.
func BeamerPolicy(alpha, beta int64) Policy {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if beta <= 0 {
		beta = DefaultBeta
	}
	return func(s Stats) Direction {
		if s.Prev == Push {
			if s.BottomUp && s.Growing && s.FrontierOutDeg > (s.RemainingInDeg+int64(s.N))/alpha {
				return Pull
			}
			return Push
		}
		if int64(s.FrontierSize) < int64(s.N)/beta {
			return Push
		}
		return Pull
	}
}

// Result summarizes a hybrid run.
type Result struct {
	Iterations int
	// Offers counts candidate computations: push relaxations plus pull
	// gathers from scheduled in-neighbors.
	Offers int64
	// Updates counts adopted improvements: CAS wins in push iterations,
	// vertex improvements in pull iterations.
	Updates int64
	// Directions records the chosen direction of every iteration, in
	// order — the switch trace ndbench prints and the forced-direction
	// tests assert.
	Directions []Direction
	// Switches counts direction changes across the run.
	Switches  int
	Converged bool
	Duration  time.Duration
}

// SwitchTrace renders Directions as one character per iteration: 'P' for
// push, 'L' for pull.
func (r Result) SwitchTrace() string {
	b := make([]byte, len(r.Directions))
	for i, d := range r.Directions {
		if d == Push {
			b[i] = 'P'
		} else {
			b[i] = 'L'
		}
	}
	return string(b)
}

// wcounters is one worker's iteration counters, padded to a cache line so
// the hot loops never false-share (single shared atomics are a measured
// contention cost on dense frontiers).
type wcounters struct {
	offers  int64
	wins    int64
	winners int64 // sources with >=1 win (push) / improved vertices (pull)
	cur     int64 // vertex a pull sweep is gathering for, named if the kernel panics
	_       [32]byte
}

// Engine executes paired push/pull kernels with per-barrier direction
// choice.
type Engine struct {
	g *graph.Graph
	p int

	// Vertices holds the per-vertex data words. Cross-worker accesses are
	// atomic in both directions (CAS combine in push; atomic load of
	// neighbors + atomic self-store in pull), so runs are race-clean.
	Vertices []uint64

	front  *frontier.Frontier
	outDeg []uint32

	// Policy chooses the direction each iteration; nil means
	// BeamerPolicy(DefaultAlpha, DefaultBeta). Set before Run — the
	// forced-direction tests and ndbench sweeps install custom policies.
	Policy Policy

	// StallWindow enables the divergence watchdog shared with the other
	// engines: abort with core.ErrStalled when the scheduled count
	// reaches no new minimum for StallWindow consecutive iterations. 0
	// disables.
	StallWindow int

	// touched marks vertices that have ever been scheduled;
	// remainingInDeg is the summed in-degree of the rest (Stats).
	touched        *frontier.Bitset
	remainingInDeg int64

	// loop is the run lifecycle shared with the other barrier engines
	// (pool, cancellation, cap, watchdog, panic handling, telemetry).
	loop     core.Loop
	counters []wcounters
	trace    *trace.Recorder

	// cert, when installed via Certify, is validated against every kernel
	// Run is handed before any iteration executes.
	cert *eligibility.Certificate
}

// NewEngine builds a hybrid engine. threads < 1 defaults to GOMAXPROCS.
func NewEngine(g *graph.Graph, threads int) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("hybrid: nil graph")
	}
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	deg := make([]uint32, g.N())
	for v := range deg {
		deg[v] = uint32(g.OutDegree(uint32(v)))
	}
	f := frontier.NewFrontier(g.N())
	f.AttachOutDegrees(deg)
	return &Engine{
		g:        g,
		p:        threads,
		Vertices: make([]uint64, g.N()),
		front:    f,
		outDeg:   deg,
		touched:  frontier.NewBitset(g.N()),
		counters: make([]wcounters, threads),
		loop: core.Loop{
			Lifecycle: core.Lifecycle{Name: "hybrid"},
			Kind:      obs.EngineHybrid, Threads: threads, N: g.N(),
			Front: f, MaxIters: core.DefaultMaxIters,
		},
	}, nil
}

// Observe attaches an observer: each iteration emits one event tagged
// with the chosen direction. Call before Run; nil detaches.
func (e *Engine) Observe(o *obs.Observer) { e.loop.Observer = o }

// Trace attaches an execution-path recorder. Both directions record one
// event per adopted improvement — (iteration, worker, vertex, 1, adopted
// value) — so a trace spanning direction switches stays uniform and
// ndtrace diff compares hybrid runs against any other engine's without
// caring where each iteration's direction came from.
func (e *Engine) Trace(rec *trace.Recorder) { e.trace = rec }

// Frontier exposes the scheduled set for seeding.
func (e *Engine) Frontier() *frontier.Frontier { return e.front }

// Certify installs an eligibility certificate (ndlint -cert /
// algorithms.CertificateFor("kernel", name)) that Run validates before
// executing: the certificate must be a kernel certificate for the same
// Name, certified direction-consistent (Better a verified strict order,
// so push/pull switching reaches the same fixed point), and must agree
// with the kernel's EdgeIndexed and FirstOfferWins flags — the two
// capabilities the pull sweeps condition on. nil uninstalls. Without a
// certificate Run trusts the kernel's declarations as before; with one,
// a kernel whose declarations drifted from what was verified is refused.
func (e *Engine) Certify(c *eligibility.Certificate) { e.cert = c }

// Close releases the persistent worker pool; the next Run re-creates it.
func (e *Engine) Close() { e.loop.Close() }

// Run executes the kernel to quiescence. ctx, when non-nil, is checked at
// every iteration barrier; on cancellation Run returns the partial Result
// and the context's error. A panic in Message or Better is returned as an
// error naming the vertex being relaxed or gathered for, and the engine
// can Run again. The kernel's Undirected requirement is the caller's to
// satisfy (pass g.Undirected() to NewEngine).
func (e *Engine) Run(ctx context.Context, k algorithms.Kernel) (Result, error) {
	if k.Init == nil || k.Message == nil || k.Better == nil {
		return Result{}, fmt.Errorf("hybrid: Kernel requires Init, Message, and Better")
	}
	if e.cert != nil {
		if err := e.cert.AdmitKernel(k.Name, k.EdgeIndexed, k.FirstOfferWins); err != nil {
			return Result{}, fmt.Errorf("hybrid: %w", err)
		}
	}
	vals, seeds := k.Init(e.g)
	if len(vals) != e.g.N() {
		return Result{}, fmt.Errorf("hybrid: Kernel.Init returned %d words for %d vertices", len(vals), e.g.N())
	}
	copy(e.Vertices, vals)
	e.front.LoadCurrent(nil)
	if seeds == nil {
		e.front.ScheduleAll()
	} else {
		e.front.ScheduleNowAll(seeds)
	}
	e.touched.ClearAll()
	e.remainingInDeg = int64(e.g.M())

	var res Result
	policy := e.Policy
	if policy == nil {
		policy = BeamerPolicy(DefaultAlpha, DefaultBeta)
	}
	clear(e.counters) // a panicked iteration leaves its counts behind

	// Both direction closures are bound once per run so per-iteration
	// dispatch through the pool allocates nothing.
	curIter := 0
	pushFn := func(worker, vi int) {
		if e.loop.Stopped() {
			return
		}
		v := uint32(vi)
		defer func() {
			if r := recover(); r != nil {
				e.loop.RecordPanic(v, r)
			}
		}()
		srcVal := atomic.LoadUint64(&e.Vertices[v])
		lo, _ := e.g.OutEdgeIndex(v)
		c := &e.counters[worker]
		uWins := 0
		for i, u := range e.g.OutNeighbors(v) {
			cand := k.Message(srcVal, lo+uint32(i))
			c.offers++
			if e.combine(u, cand, k.Better) {
				uWins++
				e.front.Schedule(int(u))
				if t := e.trace; t != nil {
					t.Record(curIter, worker, u, 1, cand)
				}
			}
		}
		if uWins > 0 {
			c.wins += int64(uWins)
			c.winners++
		}
	}
	n := e.g.N()
	// Three pull sweeps, strongest applicable capability first:
	//
	//   - FirstOfferWins (BFS-like): skip reached vertices with one word
	//     load, stop at the first scheduled in-neighbor. Reached values
	//     are never written again and unreached values are never read, so
	//     the sweep needs no atomics at all.
	//   - value-only kernels (WCC): full monotone gather, but without
	//     streaming the in-edge-index array Message would ignore.
	//   - edge-indexed kernels (SSSP): full gather with canonical edge
	//     indices for the per-edge data lookup.
	//
	// The full gathers must merge offers from ALL scheduled in-neighbors
	// — a Beamer-style early exit would adopt one offer and skip a better
	// one whose source leaves the frontier, losing the update forever.
	// Cross-worker value accesses there are atomic (neighbor loads,
	// self-store); a mid-iteration fresh value is at least as good as the
	// barrier value under monotonicity, so the fixed point is unchanged.
	var pullFn func(worker int)
	switch {
	case k.FirstOfferWins:
		pullFn = func(worker int) {
			lo := n * worker / e.p
			hi := n * (worker + 1) / e.p
			c := &e.counters[worker]
			for vi := lo; vi < hi; vi++ {
				if e.Vertices[vi] != k.Unreached {
					continue
				}
				for _, u := range e.g.InNeighbors(uint32(vi)) {
					if !e.front.Scheduled(int(u)) {
						continue
					}
					c.cur = int64(vi)
					val := k.Message(e.Vertices[u], 0)
					e.Vertices[vi] = val
					e.front.Schedule(vi)
					c.offers++
					c.wins++
					c.winners++
					if t := e.trace; t != nil {
						t.Record(curIter, worker, uint32(vi), 1, val)
					}
					break
				}
			}
		}
	case !k.EdgeIndexed:
		pullFn = func(worker int) {
			lo := n * worker / e.p
			hi := n * (worker + 1) / e.p
			c := &e.counters[worker]
			for vi := lo; vi < hi; vi++ {
				v := uint32(vi)
				ins := e.g.InNeighbors(v)
				if len(ins) == 0 {
					continue
				}
				c.cur = int64(vi)
				best := e.Vertices[v] // only this worker writes v's word
				improved := false
				for _, u := range ins {
					if !e.front.Scheduled(int(u)) {
						continue
					}
					cand := k.Message(atomic.LoadUint64(&e.Vertices[u]), 0)
					c.offers++
					if k.Better(cand, best) {
						best = cand
						improved = true
					}
				}
				if improved {
					atomic.StoreUint64(&e.Vertices[v], best)
					e.front.Schedule(vi)
					c.wins++
					c.winners++
					if t := e.trace; t != nil {
						t.Record(curIter, worker, v, 1, best)
					}
				}
			}
		}
	default:
		pullFn = func(worker int) {
			lo := n * worker / e.p
			hi := n * (worker + 1) / e.p
			c := &e.counters[worker]
			for vi := lo; vi < hi; vi++ {
				v := uint32(vi)
				ins := e.g.InNeighbors(v)
				if len(ins) == 0 {
					continue
				}
				idx := e.g.InEdgeIndices(v)
				c.cur = int64(vi)
				best := e.Vertices[v] // only this worker writes v's word
				improved := false
				for i, u := range ins {
					if !e.front.Scheduled(int(u)) {
						continue
					}
					cand := k.Message(atomic.LoadUint64(&e.Vertices[u]), idx[i])
					c.offers++
					if k.Better(cand, best) {
						best = cand
						improved = true
					}
				}
				if improved {
					atomic.StoreUint64(&e.Vertices[v], best)
					e.front.Schedule(vi)
					c.wins++
					c.winners++
					if t := e.trace; t != nil {
						t.Record(curIter, worker, v, 1, best)
					}
				}
			}
		}
	}

	sweep := pullFn
	pullFn = func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				e.loop.RecordPanic(uint32(e.counters[worker].cur), r)
			}
		}()
		sweep(worker)
	}

	prev := Push
	prevSize := 0
	pool := e.loop.Pool()
	step := func(iter int, members []int) (obs.Event, error) {
		for _, v := range members {
			if !e.touched.Test(v) {
				e.touched.Set(v)
				e.remainingInDeg -= int64(e.g.InDegree(uint32(v)))
			}
		}
		dir := policy(Stats{
			Iter:           iter,
			FrontierSize:   e.front.Size(),
			FrontierOutDeg: e.front.CurrentOutDegree(),
			RemainingInDeg: e.remainingInDeg,
			BottomUp:       k.FirstOfferWins,
			N:              n,
			M:              e.g.M(),
			Growing:        e.front.Size() > prevSize,
			Prev:           prev,
		})
		if iter > 0 && dir != prev {
			res.Switches++
		}
		res.Directions = append(res.Directions, dir)
		curIter = iter

		if dir == Push {
			pool.RunBlocks(members, pushFn)
		} else {
			pool.RunEach(pullFn)
		}

		var offers, wins, winners int64
		for w := range e.counters {
			c := &e.counters[w]
			offers += c.offers
			wins += c.wins
			winners += c.winners
			c.offers, c.wins, c.winners = 0, 0, 0
		}
		res.Offers += offers
		res.Updates += wins
		prev = dir
		prevSize = e.front.Size()
		return obs.Event{
			Updates:     winners,
			EdgeReads:   offers,
			EdgeWrites:  wins,
			RWConflicts: -1,
			WWConflicts: -1,
			Direction:   dir.String(),
		}, nil
	}

	e.loop.Context, e.loop.StallWindow = ctx, e.StallWindow
	lr, err := e.loop.Run(step)
	res.Iterations, res.Converged, res.Duration = lr.Iterations, lr.Converged, lr.Duration
	return res, err
}

// combine CAS-installs cand into u's word if it improves.
func (e *Engine) combine(u uint32, cand uint64, better func(c, cur uint64) bool) bool {
	for {
		cur := atomic.LoadUint64(&e.Vertices[u])
		if !better(cand, cur) {
			return false
		}
		if atomic.CompareAndSwapUint64(&e.Vertices[u], cur, cand) {
			return true
		}
	}
}
