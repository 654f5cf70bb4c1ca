package async

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// exec is what the two barrier-free executors have in common: the graph and
// its data words, the seed list, the observation hooks, and the counters
// and flags their drain loops poll. Executor and NoSync embed it and add
// only how work is queued and how quiescence is detected.
type exec struct {
	g *graph.Graph

	// Edges and Vertices mirror core.Engine's layout so algorithm Setup
	// state can be transplanted with LoadFrom.
	Edges    edgedata.Store
	Vertices []uint64

	// pool hosts the drain loops: repeated Runs reuse the same parked
	// workers instead of spawning one goroutine per worker per call.
	pool    *sched.Pool
	threads int
	seeds   []int

	// kind tags telemetry samples; trace, when non-nil, records one event
	// per executed update.
	kind    obs.EngineKind
	trace   *trace.Recorder
	samples atomic.Int64 // telemetry sample sequence

	// clock measures read staleness (epochs are executed updates, slots are
	// edge words); residual accumulates per-commit value movement and
	// sharpens the Residual gauge when sharpResidual is set (a ResidualDelta
	// was supplied). Both are created when an Observer is attached and nil —
	// their hot-path hooks one pointer test — when observation is off.
	clock         *obs.DelayClock
	residual      *obs.ResidualEstimator
	sharpResidual bool

	// life is the run lifecycle every tier shares: cancellation, panic →
	// error, phase, the clock. Its stop flag ends the run early — the
	// update cap max stops it with no error — and every schedule polls it.
	life core.Lifecycle
	max  int64

	// Everything above — and the executor's own fields after this struct —
	// is read on every edge access or schedule and written at most a few
	// times per run. updates is bumped by every worker on every update, so
	// it gets a cache line to itself: sharing one with the stop flag made
	// every schedule miss.
	_       [64]byte
	updates atomic.Int64
	_       [56]byte
}

func (s *exec) init(g *graph.Graph, mode edgedata.Mode, threads int, kind obs.EngineKind,
	o *obs.Observer, residualDelta func(old, new uint64) float64, rec *trace.Recorder) {
	s.g = g
	s.threads = threads
	s.life = core.Lifecycle{Name: kind.String(), Observer: o}
	s.pool = sched.NewPoolNamed(threads, kind.String())
	s.Edges = edgedata.New(mode, g.M())
	s.Vertices = make([]uint64, g.N())
	s.kind, s.trace = kind, rec
	if o != nil {
		s.residual = obs.NewResidualEstimator(threads, residualDelta)
		s.sharpResidual = residualDelta != nil
		// One epoch per executed update; one stamp slot per edge word.
		s.clock = obs.NewDelayClock(threads, g.M())
		o.SetDelaySource(kind, s.clock.Hist)
	}
}

// Close releases the executor's persistent worker pool. The executor stays
// usable — a later Run re-creates the pool — but Close makes the release
// deterministic instead of waiting for the pool's finalizer.
func (s *exec) Close() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}

// Graph returns the executor's graph.
func (s *exec) Graph() *graph.Graph { return s.g }

// Seed marks v as initially scheduled.
func (s *exec) Seed(v uint32) { s.seeds = append(s.seeds, int(v)) }

// LoadFrom transplants initial state prepared by an algorithm's Setup on a
// barrier-based engine: vertex words, edge words, and the scheduled set
// become this executor's initial state. The engine must be freshly set up
// (not yet run) and share the same graph.
func (s *exec) LoadFrom(e *core.Engine) error {
	if e.Graph() != s.g {
		return fmt.Errorf("async: LoadFrom engine holds a different graph")
	}
	copy(s.Vertices, e.Vertices)
	for i, w := range e.Edges.Snapshot() {
		s.Edges.Store(uint32(i), w)
	}
	s.seeds = append(s.seeds[:0], e.Frontier().Members()...)
	return nil
}

// begin starts a run on the lifecycle with the executor's current options
// and resets the per-run state, re-creating the pool after a Close.
func (s *exec) begin(ctx context.Context, maxUpdates int64) {
	if s.pool == nil {
		s.pool = sched.NewPoolNamed(s.threads, s.kind.String())
	}
	s.life.Context, s.max = ctx, maxUpdates
	if s.max <= 0 {
		s.max = 1 << 26
	}
	s.life.Begin()
	s.updates.Store(0)
	s.clock.Reset()
	s.residual.Reset()
}

// admit is asked before every update: it stops the run on cancellation and
// counts the update against the cap, refusing it once the cap is exceeded.
func (s *exec) admit() bool {
	if err := s.life.Err(); err != nil {
		s.life.Stop(err)
		return false
	}
	if s.updates.Add(1) > s.max {
		s.life.Stop(nil)
		return false
	}
	return true
}

// end closes the run on the lifecycle: the update count (capped, for a run
// the cap stopped), whether it drained to quiescence, its duration, and the
// error that stopped it, if any.
func (s *exec) end() (updates int64, converged bool, d time.Duration, err error) {
	updates, converged = s.updates.Load(), !s.life.Stopped()
	if !converged {
		updates = min(updates, s.max)
	}
	return updates, converged, s.life.End(converged), s.life.Cause()
}

// runOne executes one update through vw (whose base is vb), converting a
// panic into a lifecycle stop instead of crashing the process.
func (s *exec) runOne(vb *viewBase, vw core.VertexView, update core.UpdateFunc, v uint32) {
	defer func() {
		if r := recover(); r != nil {
			s.life.RecordPanic(v, r)
		}
	}()
	vb.Bind(s.g, v)
	vb.uWrites = 0
	update(vw)
	if t := s.trace; t != nil {
		t.Record(0, vb.worker, v, vb.uWrites, s.Vertices[v])
	}
}

// sample turns vb's accumulated window into a telemetry sample and resets
// the window. pending — the executor's count of queued tasks — doubles as
// the scheduled-set gauge and, over |V|, the convergence residual (it
// trends to zero at quiescence), sharpened to the measured mean value
// movement per update when a residual metric is armed. Only vb's owning
// worker (or the post-drain flush) may call this.
func (s *exec) sample(vb *viewBase, pending, durationNs int64) obs.Event {
	resid := float64(pending) / float64(s.g.N())
	if s.sharpResidual {
		t := s.residual.Totals()
		if dUp := t.Updates - vb.emittedResidUpdates; dUp > 0 {
			resid = (t.Sum - vb.emittedResidSum) / float64(dUp)
			vb.emittedResidSum, vb.emittedResidUpdates = t.Sum, t.Updates
		}
	}
	var p50, p99, dmax int64
	if cl := s.clock; cl != nil {
		h := cl.Hist()
		p50, p99, dmax = h.Quantile(0.50), h.Quantile(0.99), h.Max()
	}
	ev := obs.Event{
		Engine:        s.kind,
		Iter:          s.samples.Add(1) - 1,
		Scheduled:     pending,
		Updates:       vb.nUpdates,
		EdgeReads:     vb.nReads,
		EdgeWrites:    vb.nWrites,
		RWConflicts:   -1,
		WWConflicts:   -1,
		Residual:      resid,
		DurationNanos: durationNs,
		DelayP50:      p50,
		DelayP99:      p99,
		DelayMax:      dmax,
	}
	vb.nUpdates, vb.nReads, vb.nWrites = 0, 0, 0
	return ev
}

// viewBase is the executor-independent part of a barrier-free VertexView:
// the bound vertex's topology (core.Scope), its data words, the telemetry
// window, and the edge loads and stores with their delay-clock hooks. What
// a write schedules differs per executor, so view and nsView add exactly
// the methods that schedule.
type viewBase struct {
	// Views live in one per-worker array and are written on every bind and
	// every counted access; the leading pad keeps two workers' views off
	// each other's cache lines whatever the view's size.
	_ [64]byte

	core.Scope
	s      *exec
	worker int

	// nUpdates/nReads/nWrites accumulate this worker's telemetry window;
	// worker-private, drained by exec.sample.
	nUpdates, nReads, nWrites int64
	// emittedResid* snapshot the global residual totals at this worker's
	// last telemetry emit.
	emittedResidSum     float64
	emittedResidUpdates int64
	// uWrites counts edge writes of the currently bound update, for the
	// execution-path trace.
	uWrites int

	// plain is set when the executor has nothing to record per access (no
	// delay clock, no fault injector around the store): the bulk accessors
	// then make one store call per update instead of taking the per-edge
	// path.
	plain bool
}

func (b *viewBase) Vertex() uint64 { return b.s.Vertices[b.V()] }

func (b *viewBase) SetVertex(w uint64) {
	if r := b.s.residual; r != nil {
		r.Observe(b.worker, b.s.Vertices[b.V()], w)
	}
	b.s.Vertices[b.V()] = w
}

func (b *viewBase) InEdgeVal(k int) uint64  { return b.load(b.InEdgeID(k)) }
func (b *viewBase) OutEdgeVal(k int) uint64 { return b.load(b.OutEdgeID(k)) }
func (b *viewBase) Yield()                  {}

func (b *viewBase) load(e uint32) uint64 {
	b.nReads++
	if cl := b.s.clock; cl != nil {
		cl.ObserveRead(b.worker, e)
	}
	return b.s.Edges.Load(e)
}

// store writes edge word e; the caller schedules the other endpoint.
func (b *viewBase) store(e uint32, w uint64) {
	b.nWrites++
	b.uWrites++
	b.s.Edges.Store(e, w)
	if cl := b.s.clock; cl != nil {
		cl.Stamp(e)
	}
}

// inVals and outVals are InEdgeVals and OutEdgeVals; v is the view b is the
// base of, through which the instrumented path reads word by word.
func (b *viewBase) inVals(v core.VertexView) []uint64 {
	if !b.plain {
		return b.GatherIn(v)
	}
	b.nReads += int64(b.InDegree())
	return b.LoadIn(b.s.Edges)
}

func (b *viewBase) outVals(v core.VertexView) []uint64 {
	if !b.plain {
		return b.GatherOut(v)
	}
	b.nReads += int64(b.OutDegree())
	return b.LoadOut(b.s.Edges)
}

// fillOut is the plain half of SetOutEdgeVals: one FillRange over the n
// out-edges. It returns n; the caller schedules the destinations.
func (b *viewBase) fillOut(w uint64) int {
	n := b.OutDegree()
	b.nWrites += int64(n)
	b.uWrites += n
	lo := b.OutEdgeID(0)
	b.s.Edges.FillRange(lo, lo+uint32(n), w)
	return n
}

// absorb folds o's telemetry window into b's, for the final aggregate.
func (b *viewBase) absorb(o *viewBase) {
	b.nUpdates += o.nUpdates
	b.nReads += o.nReads
	b.nWrites += o.nWrites
	o.nUpdates, o.nReads, o.nWrites = 0, 0, 0
}
