// Package core implements the paper's system model (Section II): a
// vertex-centric, coordinated-scheduling graph engine that executes update
// functions over iterations separated by barriers — the "synchronous
// implementation of the asynchronous model" — or, under the NoSync
// scheduler (nosync.go), with no barriers at all.
//
// Per iteration n, the scheduled set S_n (a Frontier) is dispatched over P
// worker goroutines in contiguous label blocks (Fig. 1); each worker runs
// its updates small-label-first; writes to an edge post the opposite
// endpoint into S_{n+1} (the task-generation rule); the engine advances to
// iteration n+1 at the barrier and stops when S_n is empty (convergence) or
// a configured iteration cap is hit.
//
// Update functions follow the pull-mode gather–compute–scatter shape of
// Algorithm 1 in the paper: the scope of f(v) is v itself plus v's
// incident edges; all cross-update communication flows through the
// edge-data words of package edgedata, whose per-operation atomicity is
// the only synchronization nondeterministic execution gets.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/fault"
	"ndgraph/internal/frontier"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// DefaultMaxIters is the iteration cap applied when Options.MaxIters is
// zero, shared by the barrier engines (core and hybrid). It is a runaway
// backstop, not a tuning knob — combine with Options.StallWindow to detect
// divergence long before the cap.
const DefaultMaxIters = 1 << 20

// ErrStalled is returned (wrapped, with diagnostics) when the divergence
// watchdog aborts a run whose active-vertex count stopped improving.
var ErrStalled = errors.New("core: computation stalled (divergence watchdog)")

// UpdateFunc is a vertex update function f(v). It must confine its data
// accesses to the Ctx it receives (vertex value + incident edge words); the
// engine enforces nothing, but anything wider re-introduces the data races
// the paper's model excludes.
type UpdateFunc func(ctx VertexView)

// Options configures an Engine run.
type Options struct {
	// Scheduler selects the execution strategy. Default Deterministic.
	// NoSync needs a Verdict and refuses the options that hang on an
	// iteration barrier (see noSyncRefusal).
	Scheduler sched.Kind
	// Threads is the worker count P for parallel schedulers. Values < 1
	// default to GOMAXPROCS. Deterministic execution always uses 1.
	Threads int
	// Mode selects the atomicity method for the edge-data store. Parallel
	// schedulers refuse ModeSequential.
	Mode edgedata.Mode
	// Dispatch selects the intra-iteration work assignment for parallel
	// schedulers: Static (the paper's Fig. 1 contiguous, small-label-first
	// label blocks, default; cut at equal shares of updates plus incident
	// edges by sched.Cuts) or Dynamic (chunked work-stealing-style claims;
	// an ablation of the system model's load-balance assumption).
	Dispatch sched.Dispatch
	// MaxIters caps the iteration count; 0 means DefaultMaxIters.
	// Hitting the cap returns a Result with Converged == false. NoSync has
	// no iterations: it caps the update count at MaxIters × |V| instead.
	MaxIters int
	// Context, when non-nil, cancels or deadlines the run: it is checked
	// at every iteration barrier (before every update under NoSync) and
	// Run returns the partial Result plus the context's error within one
	// iteration of cancellation.
	Context context.Context
	// StallWindow enables the divergence watchdog: if the scheduled-vertex
	// count reaches no new minimum for StallWindow consecutive iterations,
	// the run aborts with ErrStalled and a diagnostic partial Result.
	// 0 disables. Note that legitimately long plateaus (e.g. PageRank
	// keeping all vertices active while residuals shrink) need a window
	// larger than the plateau.
	StallWindow int
	// Inject, when non-nil, arms the fault injector for the duration of
	// the run: edge reads and writes are perturbed per its Plan, every
	// faulted edge's endpoints are rescheduled on the faulting worker (the
	// injector's heal rule), and an injected crash aborts the run with
	// fault.ErrCrash at the planned iteration boundary. NoSync hosts the
	// injector too but, having no iteration boundary, refuses a CrashIter.
	Inject *fault.Injector
	// CheckpointEvery, with CheckpointPath, writes a crash-safe snapshot
	// of the engine state (vertices, edge words, frontier, counters) every
	// N iteration boundaries. A later engine on the same graph can
	// RestoreCheckpoint and Run to completion; with a deterministic
	// scheduler the resumed run's final state is byte-identical to an
	// uninterrupted one. 0 disables.
	CheckpointEvery int
	// CheckpointPath is the newest checkpoint generation (written
	// atomically: temp file + rename, CRC32-verified on load). Each write
	// first renames the one before to CheckpointPath + ".prev", which
	// RestoreCheckpoint loads when the newest is missing or torn.
	CheckpointPath string
	// EnableCensus turns on logical conflict classification (read-write vs
	// write-write per Section III). Adds one atomic OR per edge access.
	EnableCensus bool
	// PotentialCensus (implies EnableCensus) classifies *potential*
	// conflicts instead of observed ones: before each real update, the
	// engine replays the update against a frozen pre-iteration snapshot,
	// recording the reads and writes it would perform if it overlapped
	// (∥) every other update of the iteration, and discarding its effects.
	// This is the right notion for eligibility probing — an in-order
	// Gauss–Seidel execution can mask conflicts that a racy overlap would
	// expose (e.g. WCC's conditional edge writes on graphs whose edges all
	// point label-descending).
	PotentialCensus bool
	// Amplify injects scheduling yields between the gather and scatter
	// phases of every update, widening race windows so that conflict and
	// recovery paths are exercised even on machines with few cores.
	Amplify bool
	// Trace, when non-nil, records the execution path (iteration, worker,
	// vertex, write count and committed vertex value per update) into the
	// given recorder. Two deterministic runs record identical paths;
	// nondeterministic runs generally do not — the observable core of the
	// paper's distinction. If the recorder's commit log is enabled
	// (EnableCommits), every edge write additionally goes through a striped
	// lock that makes the physical store and the commit record atomic per
	// edge, so the recorded per-edge order equals the physical commit order
	// and the run becomes replayable with ReplayTrace.
	Trace *trace.Recorder
	// OnEdgeWrite, when non-nil, observes every committed edge write with
	// the edge's canonical index and its old and new words. Intended for
	// deterministic verification passes (e.g. the monotonicity checker);
	// with parallel schedulers the callback must be safe for concurrent
	// use and old values are sampled racily.
	OnEdgeWrite func(edge uint32, old, new uint64)
	// Observer, when non-nil, streams one telemetry event per iteration
	// (scheduled-set size, updates, edge accesses, conflict rates when
	// sampling is on, barrier-wait imbalance, residual) into the
	// observability layer. nil — the default — costs one pointer test per
	// barrier; Observer.SampleConflicts implies EnableCensus. Under NoSync
	// each worker emits one event per window of updates instead (with
	// steal and idle-transition counts) plus a final aggregate.
	Observer *obs.Observer
	// Verdict is the NoSync scheduler's admission ticket, required iff
	// Scheduler is NoSync: the algorithm's eligibility verdict from a
	// probe (algorithms.Probe), a certificate (Certificate.Verdict) or
	// algorithms.NoSyncVerdict, which picks one of the two. NewEngine
	// refuses a nil, ineligible or theorem-less verdict.
	Verdict *eligibility.Verdict
}

// Result summarizes a completed run.
type Result struct {
	Iterations  int
	Updates     int64
	Converged   bool
	Duration    time.Duration
	RWConflicts uint64 // cumulative read-write conflict edges (census only)
	WWConflicts uint64 // cumulative write-write conflict edges (census only)
	// Steals counts tasks taken from another worker's deque and
	// IdleTransitions busy→idle transitions across all workers — the
	// load-imbalance signals NoSync has instead of barrier-wait time.
	// Zero under the barrier schedulers.
	Steals          int64
	IdleTransitions int64
}

// String renders the result compactly for logs and CLI output.
func (r Result) String() string {
	status := "converged"
	if !r.Converged {
		status = "NOT converged"
	}
	s := fmt.Sprintf("%s in %d iterations, %d updates, %v", status, r.Iterations, r.Updates, r.Duration)
	if r.RWConflicts > 0 || r.WWConflicts > 0 {
		s += fmt.Sprintf(" (%d RW / %d WW conflict edges)", r.RWConflicts, r.WWConflicts)
	}
	return s
}

// Engine binds a graph, an edge-data store, a vertex-data array, and a
// frontier into a runnable computation. Create with NewEngine, initialize
// state (Vertices, Edges, InitialFrontier), then call Run.
type Engine struct {
	g    *graph.Graph
	opts Options

	// Edges holds one mutable 64-bit word per edge (canonical index).
	Edges edgedata.Store
	// Vertices holds one 64-bit word per vertex. Only f(v) writes slot v
	// and no other update reads it, so the array needs no synchronization.
	Vertices []uint64

	front  *frontier.Frontier
	census *edgedata.Census
	// ns is the NoSync scheduler's run state; nil under every other
	// scheduler, which is what Ctx's three scheduling sites test. It sits
	// beside front, which every barrier wakeup reads, so the test touches
	// no extra cache line (at the end of Engine, deterministic WCC on the
	// hubs-first web-berkstan analog ran about 5 % slower on a 2-vCPU
	// x86-64 VM).
	ns *noSync

	// shadow is the engine's one edge snapshot, refilled at each use:
	// before every iteration of a Synchronous run (whose reads it serves, so
	// that writes of the current iteration stay invisible until the
	// barrier) or of a PotentialCensus run (whose shadow contexts read it),
	// for a checkpoint and for the end-of-run state digest.
	shadow []uint64

	// traceCommits is set for the duration of a Run whose recorder has the
	// commit log enabled; edge writes then go through commitStore, which
	// serializes the physical store and the commit record per edge stripe.
	traceCommits bool
	// traceLocks are the commit-order stripes (allocated on first traced
	// run with commits enabled).
	traceLocks []sync.Mutex
	// curIter is the iteration currently dispatching (for tracing).
	curIter int

	// startIter / startUpdates hold the resume point installed by
	// RestoreCheckpoint; zero for a fresh run.
	startIter    int
	startUpdates int64

	// loop is the run lifecycle (pool, cancellation, cap, watchdog, crash
	// and panic handling, telemetry); this engine supplies step.
	loop Loop

	workers       []Ctx
	shadowWorkers []Ctx // dry replicas for the PotentialCensus shadow runs
	updates       atomic.Int64

	// runFn and stepFn are runOne and step bound once, so the per-iteration
	// hot path passes preexisting func values instead of allocating a
	// closure every barrier.
	runFn  func(worker, item int)
	stepFn Step

	// cuts holds the static dispatch's block boundaries, reused across
	// iterations.
	cuts []int

	// curUpdate is the UpdateFunc of the run in progress, read by runFn.
	curUpdate UpdateFunc

	// clock measures read staleness in iterations when an Observer is
	// attached (nil otherwise; the hot-path hooks cost one pointer test).
	// The epoch advances once per iteration barrier, so a barrier engine's
	// histogram concentrates at ≤ 1 epoch — the deterministic baseline the
	// barrier-free executor's spread is compared against. Under NoSync
	// the epoch advances once per executed update.
	clock *obs.DelayClock

	// faults is Edges under Options.Inject (nil otherwise): the workers of
	// a faulted run access it through its worker path (Ctx.liveLoad,
	// Ctx.liveStore), so each fault heals on the worker that took it.
	faults *fault.Store
}

// NewEngine validates opts and builds an engine for g.
func NewEngine(g *graph.Graph, opts Options) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if opts.Threads < 1 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	if opts.Scheduler == sched.Deterministic {
		opts.Threads = 1
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = DefaultMaxIters
	}
	parallel := opts.Threads > 1 && opts.Scheduler != sched.Deterministic
	if parallel && opts.Mode == edgedata.ModeSequential {
		return nil, fmt.Errorf("core: %v scheduler with %d threads requires a concurrent edge-data mode, not %v",
			opts.Scheduler, opts.Threads, opts.Mode)
	}
	// Barrier schedulers post wakeups into per-worker frontier sets; NoSync
	// posts onto its deques and needs none.
	name, kind, workerSets := "core", obs.EngineCore, opts.Threads
	if opts.Scheduler == sched.NoSync {
		if o := noSyncRefusal(opts); o != "" {
			return nil, fmt.Errorf("core: the nosync scheduler has no iteration barrier and cannot honour %s", o)
		}
		if err := opts.Verdict.NoSync(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		name, kind, workerSets = "nosync", obs.EngineNoSync, 0
	}
	e := &Engine{
		g:        g,
		opts:     opts,
		Edges:    edgedata.New(opts.Mode, g.M()),
		Vertices: make([]uint64, g.N()),
		front:    frontier.NewFrontierWorkers(g.N(), workerSets),
		loop: Loop{
			Lifecycle: Lifecycle{Name: name, Context: opts.Context, Observer: opts.Observer},
			Kind:      kind, Threads: opts.Threads, N: g.N(),
			MaxIters: opts.MaxIters, StallWindow: opts.StallWindow, Inject: opts.Inject,
		},
	}
	if opts.Inject != nil {
		// The injector sits between the engine and the raw store; it stays
		// disarmed (transparent) until Run, so Setup is never perturbed.
		e.faults = opts.Inject.Wrap(e.Edges)
		e.Edges = e.faults
	}
	if opts.PotentialCensus || opts.Observer.SampleConflicts() {
		e.opts.EnableCensus = true
	}
	if e.opts.EnableCensus {
		e.census = edgedata.NewCensus(g.M())
	}
	if opts.Observer != nil {
		// One epoch per iteration barrier (per update under NoSync); one
		// stamp slot per edge word.
		e.clock = obs.NewDelayClock(e.opts.Threads, int(g.M()))
		opts.Observer.SetDelaySource(kind, e.clock.Hist)
	}
	if opts.Scheduler == sched.NoSync {
		e.ns = newNoSync(e)
	}
	return e, nil
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Options returns the engine's effective options (after defaulting).
func (e *Engine) Options() Options { return e.opts }

// Frontier exposes the scheduled-vertex set for initialization: call
// ScheduleAll for algorithms that start everywhere (PageRank, WCC) or
// ScheduleNow(source) for traversals.
func (e *Engine) Frontier() *frontier.Frontier { return e.front }

// Reset clears vertex data, edge data, the frontier, and census state so
// the engine can run again from scratch on the same graph.
func (e *Engine) Reset() {
	for i := range e.Vertices {
		e.Vertices[i] = 0
	}
	e.Edges.Fill(0)
	e.front.LoadCurrent(nil)
	if e.census != nil {
		e.census.Reset()
	}
	e.updates.Store(0)
	e.startIter = 0
	e.startUpdates = 0
}

// Run executes update to convergence under the configured scheduler and
// returns run statistics. The frontier must have been initialized
// (ScheduleAll or ScheduleNow); Run returns immediately with a converged
// empty Result if nothing is scheduled.
func (e *Engine) Run(update UpdateFunc) (Result, error) {
	if update == nil {
		return Result{}, fmt.Errorf("core: nil update function")
	}
	e.ensureWorkers()
	e.curUpdate = update
	e.traceCommits = e.opts.Trace != nil && e.opts.Trace.CommitsEnabled()
	if e.traceCommits && e.traceLocks == nil {
		e.traceLocks = make([]sync.Mutex, traceStripes)
	}
	plain := e.plainRun()
	for i := range e.workers {
		e.workers[i].plain = plain
	}
	if inj := e.opts.Inject; inj != nil {
		inj.Arm(e.heal)
		defer inj.Disarm()
	}
	if e.ns != nil {
		return e.runNoSync()
	}
	e.updates.Store(e.startUpdates)

	e.clock.Reset()
	e.loop.Front, e.loop.StartIter = e.front, e.startIter
	lr, err := e.loop.Run(e.stepFn)
	res := Result{
		Iterations: lr.Iterations, Converged: lr.Converged, Duration: lr.Duration,
		Updates: e.updates.Load(),
	}
	if e.census != nil {
		res.RWConflicts, res.WWConflicts = e.census.Totals()
	}
	if t := e.opts.Trace; t != nil {
		// Install the final-state digest so a replay of this trace can
		// assert it reaches the byte-identical fixed point.
		t.SetDigest(e.stateDigest())
	}
	return res, err
}

// heal is the fault injector's hook, called on worker w's goroutine when
// w's access to edge faulted. It wakes both endpoints of the edge — the
// task generation the phantom racing competitor would have applied —
// giving monotone algorithms their Theorem 2 retry path. Like every other
// wakeup it goes into a structure of w's own: w's deque under NoSync, w's
// next-set bitset under a barrier scheduler.
func (e *Engine) heal(w int, edge uint32) {
	src, dst := e.g.EdgeEndpoints(edge)
	if x := e.ns; x != nil {
		x.post(w, int(src))
		x.post(w, int(dst))
		return
	}
	e.front.ScheduleOn(w, int(src))
	e.front.ScheduleOn(w, int(dst))
}

// step is one iteration: checkpoint and shadow hooks, the dispatch, and the
// iteration's statistics.
func (e *Engine) step(iter int, members []int) (obs.Event, error) {
	// Checkpoint at multiples of CheckpointEvery, but never at iteration 0
	// (a snapshot of initial state is useless) and never at the restore
	// point itself — iter % CheckpointEvery == 0 holds there by
	// construction, and rewriting the checkpoint that was just loaded would
	// only burn I/O.
	if e.opts.CheckpointEvery > 0 && e.opts.CheckpointPath != "" &&
		iter > 0 && iter != e.startIter && iter%e.opts.CheckpointEvery == 0 {
		if err := e.saveCheckpoint(e.opts.CheckpointPath, iter, e.updates.Load()); err != nil {
			return obs.Event{}, fmt.Errorf("core: checkpoint at iteration %d: %w", iter, err)
		}
	}
	if e.opts.Scheduler == sched.Synchronous || e.opts.PotentialCensus {
		e.shadow = e.Edges.SnapshotInto(e.shadow)
	}
	e.curIter = iter
	e.dispatch(members)
	if e.loop.Stopped() {
		return obs.Event{}, nil // the loop reports it
	}

	// The census tallies every iteration, observed or not: Tally both
	// classifies this iteration's conflicts and adds them to the totals.
	rw, ww := int64(-1), int64(-1)
	if e.census != nil {
		r, w := e.census.Tally()
		rw, ww = int64(r), int64(w)
	}
	var ev obs.Event
	if e.opts.Observer != nil {
		ev = e.iterEvent(len(members), rw, ww)
	}
	// Advance the delay clock with the barrier: during iteration n the
	// epoch equals n, so a read of a value written last iteration measures
	// exactly one epoch of staleness.
	e.clock.Advance()
	return ev, nil
}

// plainRun reports whether the run about to start has no per-access
// instrumentation: no census (observed or potential), no delay clock, no
// commit log, no OnEdgeWrite observer, no race amplifier, no fault
// injector around the store and no BSP shadow. Decided once per Run (after
// traceCommits is set); the Ctx hot path tests only the resulting flag.
// NoSync refuses all of them but the delay clock and the injector, so a
// NoSync run is plain exactly when it is unobserved and unfaulted.
func (e *Engine) plainRun() bool {
	return e.census == nil && e.clock == nil && !e.traceCommits &&
		e.opts.OnEdgeWrite == nil && !e.opts.Amplify && e.opts.Inject == nil &&
		e.opts.Scheduler != sched.Synchronous
}

func (e *Engine) ensureWorkers() {
	if e.runFn == nil {
		e.runFn, e.stepFn = e.runOne, e.step
	}
	if len(e.workers) == e.opts.Threads {
		return
	}
	e.workers = e.newCtxs(e.opts.Threads, false)
	if e.opts.PotentialCensus {
		e.shadowWorkers = e.newCtxs(e.opts.Threads, true)
	}
}

// maxSmallObject is the largest allocation the Go runtime carves from a
// shared span; anything larger gets page-aligned pages of its own.
const maxSmallObject = 32 << 10

// newCtxs returns n worker contexts bound to e, in an array that starts
// on a cache-line boundary. A small allocation is not enough: one above
// 512 B that holds pointers carries an 8-byte header in front of it, so
// make([]Ctx, 3) starts 8 B past a line. The capacity makes the array a
// large object, whose pages are its own; the spare slots are never used.
func (e *Engine) newCtxs(n int, dry bool) []Ctx {
	cs := make([]Ctx, n, max(n, maxSmallObject/int(unsafe.Sizeof(Ctx{}))+1))
	for i := range cs {
		cs[i].eng, cs[i].worker, cs[i].dry = e, i, dry
	}
	return cs
}

// Close releases the engine's persistent worker pool. The engine stays
// usable — the next Run re-creates the pool — but Close makes the release
// deterministic instead of waiting for the pool's finalizer.
func (e *Engine) Close() { e.loop.Close() }

// iterEvent assembles the engine's half of one iteration's telemetry event
// from |S_n| and the census tally (-1 without a census). It runs at the
// barrier, after dispatch and the tally, so the per-worker access counters
// are quiescent.
func (e *Engine) iterEvent(scheduled int, rw, ww int64) obs.Event {
	var reads, writes int64
	for i := range e.workers {
		c := &e.workers[i]
		reads += c.sumReads
		writes += c.sumWrites
		c.sumReads, c.sumWrites = 0, 0
	}
	var tCommits, tContested int64
	if t := e.opts.Trace; t != nil && t.CommitsEnabled() {
		tCommits, tContested = t.TakeIterCommitStats()
	}
	var p50, p99, dmax int64
	if cl := e.clock; cl != nil {
		h := cl.Hist()
		p50, p99, dmax = h.Quantile(0.50), h.Quantile(0.99), h.Max()
	}
	return obs.Event{
		Updates:          int64(scheduled),
		EdgeReads:        reads,
		EdgeWrites:       writes,
		RWConflicts:      rw,
		WWConflicts:      ww,
		TraceCommits:     tCommits,
		ContestedCommits: tContested,
		DelayP50:         p50,
		DelayP99:         p99,
		DelayMax:         dmax,
	}
}

// runOne executes the current run's update function on vertex v as worker
// `worker`, under every scheduler. The barrier schedulers dispatch it
// through the prebound e.runFn so the per-iteration hot path performs no
// closure allocation; NoSync calls it from execute.
func (e *Engine) runOne(worker, v int) {
	if e.loop.Stopped() {
		return // a sibling update panicked; drain the iteration fast
	}
	defer func() {
		if r := recover(); r != nil {
			e.loop.RecordPanic(uint32(v), r)
		}
	}()
	if e.opts.PotentialCensus {
		sc := &e.shadowWorkers[worker]
		sc.bind(uint32(v))
		e.curUpdate(sc)
	}
	ctx := &e.workers[worker]
	ctx.bind(uint32(v))
	if t := e.opts.Trace; t != nil {
		// Reserve the capture slot before the update runs so its edge
		// commits can name their owning update; complete it afterwards
		// with the write count — the growth of sumWrites, which nothing
		// drains while an update runs — and the committed vertex value.
		before := ctx.sumWrites
		ctx.traceIdx = t.Begin(e.curIter, worker, uint32(v))
		e.curUpdate(ctx)
		t.Finish(ctx.traceIdx, int(ctx.sumWrites-before), e.Vertices[v])
		return
	}
	e.curUpdate(ctx)
}

// dispatch runs one iteration's scheduled updates under the configured
// strategy. members is ascending; blocks inherit that order, satisfying
// the small-label-first rule.
func (e *Engine) dispatch(members []int) {
	switch e.opts.Scheduler {
	case sched.Deterministic:
		sched.Sequential(members, e.runFn)
	case sched.Nondeterministic, sched.Synchronous:
		e.parallel(members)
	case sched.DIG:
		for _, round := range sched.DIGRounds(e.g, members) {
			e.parallel(round)
		}
	default:
		panic(fmt.Sprintf("core: unknown scheduler %v", e.opts.Scheduler))
	}
	e.updates.Add(int64(len(members)))
}

// parallel dispatches one iteration's members over the persistent pool
// under the configured intra-iteration policy. Static dispatch cuts the
// members into contiguous blocks of equal update-plus-edge cost
// (sched.Cuts), reusing e.cuts across iterations.
func (e *Engine) parallel(members []int) {
	pool := e.loop.Pool()
	if e.opts.Dispatch == sched.Dynamic {
		pool.RunChunks(members, sched.DefaultChunk, e.runFn)
		return
	}
	e.cuts = sched.Cuts(e.cuts, e.g, members, pool.Workers())
	pool.RunCuts(members, e.cuts, e.runFn)
}
