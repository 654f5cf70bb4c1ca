// Package obs is the engine observability layer: a zero-overhead-when-
// disabled telemetry spine wired into every executor in the repository
// (core, async, shard, dist, autonomous, netdist, hybrid, nosync).
//
// The paper's claims are all statements about *run-to-run behavior under
// nondeterminism* — conflict classes (Section III), convergence
// trajectories (Section II), result variance (Section V-C) — yet without a
// telemetry layer those signals are only visible post-hoc through ndbench
// tables. This package turns every run into an experiment: engines emit
// one Event per iteration (or per sample window, for the barrier-free
// executors) carrying the scheduled-set size, updates executed, edge
// read/write counts, sampled read-write/write-write conflict rates from
// the edgedata census, an active-fraction convergence residual, and the
// per-worker barrier-wait imbalance measured by sched.Pool.
//
// Design constraints, in priority order:
//
//  1. Disabled means free. Engines hold a *Observer that is nil by
//     default; the only cost on the hot path is one pointer test per
//     iteration barrier. The PR 2 zero-allocation guarantee is asserted
//     by tests with the observer both absent and attached.
//  2. Enabled means cheap. Emit performs no heap allocation in steady
//     state: events are passed by value, land in a fixed-size ring
//     buffer, and update a fixed array of per-engine atomic counters.
//     Sinks (JSONL, expvar, the /metrics endpoint) render from those two
//     structures; the JSONL encoder appends into a reusable buffer.
//  3. Stdlib only. The /metrics endpoint speaks the Prometheus text
//     exposition format from net/http, and /debug/pprof is wired from
//     net/http/pprof — no external dependencies.
package obs

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EngineKind identifies which executor emitted an event. The kinds are a
// closed enum so the observer can keep per-engine counters in a fixed
// array instead of an allocating map.
type EngineKind uint8

const (
	// EngineCore is the barrier-based coordinated-scheduling engine.
	EngineCore EngineKind = iota
	// EngineAsync is the pure asynchronous (barrier-free) executor.
	EngineAsync
	// EngineShard is the out-of-core parallel-sliding-windows engine.
	EngineShard
	// EngineDist is the simulated distributed message-passing executor.
	EngineDist
	// EngineAutonomous is the priority-driven executor.
	EngineAutonomous
	// EngineNetdist is the real-transport multi-process distributed
	// executor (TCP workers under coordinator supervision).
	EngineNetdist
	// EngineHybrid is the direction-optimizing push/pull engine.
	EngineHybrid
	// EngineNoSync is the barrier-free work-stealing executor (per-worker
	// deques, distributed termination detection).
	EngineNoSync

	numEngines
)

var engineNames = [numEngines]string{"core", "async", "shard", "dist", "autonomous", "netdist", "hybrid", "nosync"}

// String names the engine kind as used in metric labels and JSONL.
func (k EngineKind) String() string {
	if int(k) < len(engineNames) {
		return engineNames[k]
	}
	return "unknown"
}

// EngineKinds lists every engine kind, in label order.
func EngineKinds() []EngineKind {
	out := make([]EngineKind, numEngines)
	for i := range out {
		out[i] = EngineKind(i)
	}
	return out
}

// Event is one telemetry sample. Barrier-based engines emit one per
// iteration; barrier-free executors (async, dist, autonomous) emit one per
// sample window plus a final one at quiescence. All counter fields are
// deltas for the sample, not cumulative totals — the observer accumulates.
//
// Events are passed and stored by value so the emit path performs no heap
// allocation.
type Event struct {
	// TimeUnixNano is the emit timestamp; Emit stamps it when zero.
	TimeUnixNano int64
	// Engine identifies the emitting executor.
	Engine EngineKind
	// Iter is the iteration (core/shard/hybrid) or sample index (async,
	// dist, autonomous) of the sample.
	Iter int64
	// Scheduled is the scheduled-set size driving the sample: |S_n| for
	// barrier engines, the pending-queue depth for async/autonomous, the
	// in-flight message count for dist.
	Scheduled int64
	// Updates is the number of update functions executed in the sample.
	Updates int64
	// EdgeReads and EdgeWrites count edge-data accesses in the sample
	// (window-slot accesses for shard; offers and wins for hybrid).
	EdgeReads, EdgeWrites int64
	// RWConflicts and WWConflicts are the census-classified conflict edges
	// of the sample, when conflict sampling is enabled; -1 marks a sample
	// with no census attached.
	RWConflicts, WWConflicts int64
	// Residual is the convergence residual: the active fraction
	// (scheduled/|V|) unless the emitting engine computes something
	// sharper. It trends to zero as the computation converges.
	Residual float64
	// BarrierWaitNanos is the summed per-worker barrier-wait (load
	// imbalance) of the sample, from sched.Pool timing; 0 when the
	// dispatch ran inline or the executor has no barrier.
	BarrierWaitNanos int64
	// DurationNanos is the wall time of the sample.
	DurationNanos int64
	// Messages, Duplicates, and Drops are dist-engine deltas (deliveries,
	// injected duplicates, lossy-link retransmissions) for the sample;
	// zero for every other engine.
	Messages, Duplicates, Drops int64
	// Direction is the edge-traversal direction the sample executed with,
	// for engines that choose one per iteration (hybrid: "push" or
	// "pull"). Empty for single-direction engines. Always a compile-time
	// string constant so passing it allocates nothing.
	Direction string
	// TraceCommits and ContestedCommits are execution-path trace deltas
	// for the sample, present when a commit-logging trace recorder is
	// attached: edge commits recorded, and commits to an edge already
	// committed in the same iteration — the racy-winner sites under
	// nondeterministic execution. Zero when tracing is off.
	TraceCommits, ContestedCommits int64
	// Steals and IdleTransitions are work-stealing deltas (successful
	// steals from another worker's deque, and busy→idle transitions) for
	// the sample; zero for engines without work stealing.
	Steals, IdleTransitions int64
	// DelayP50, DelayP99, and DelayMax are read-staleness quantiles (in
	// epochs) from the emitting engine's DelayClock histogram at sample
	// time — the live empirical delay bound per Blanco et al. All zero
	// when no delay clock is attached.
	DelayP50, DelayP99, DelayMax int64
}

// engineCounters aggregates one engine's events. All fields are atomics so
// Emit never takes a lock to update them and /metrics renders without
// stopping emitters.
type engineCounters struct {
	samples     atomic.Int64
	iterations  atomic.Int64 // highest Iter seen + 1
	updates     atomic.Int64
	edgeReads   atomic.Int64
	edgeWrites  atomic.Int64
	rwConflicts atomic.Int64
	wwConflicts atomic.Int64
	barrierWait atomic.Int64 // nanoseconds
	duration    atomic.Int64 // nanoseconds
	messages    atomic.Int64
	duplicates  atomic.Int64
	drops       atomic.Int64
	traceCommit atomic.Int64
	contested   atomic.Int64
	steals      atomic.Int64
	idleTrans   atomic.Int64
	scheduled   atomic.Int64  // last sample's value (gauge)
	residual    atomic.Uint64 // last sample's value (float64 bits, gauge)
	delayP50    atomic.Int64  // last sample's staleness quantiles (gauges)
	delayP99    atomic.Int64
	delayMax    atomic.Int64
}

// Options configures an Observer.
type Options struct {
	// RingSize is the event ring-buffer capacity; 0 means 1024. The ring
	// keeps the most recent events for sinks attached late and for the
	// /events endpoint.
	RingSize int
	// SampleConflicts asks engines that support the edgedata census to
	// enable it and report per-iteration RW/WW conflict rates. It costs
	// one atomic OR per edge access in the core engine, so it is opt-in.
	SampleConflicts bool
	// WindowEvery is the time-window width of the per-engine window
	// aggregation (the residual/staleness curves served by /statusz);
	// 0 means one second. The observer keeps the most recent windowKeep
	// closed windows per run, plus the pending partial window, which
	// Close flushes.
	WindowEvery time.Duration
}

// windowKeep is the closed-window ring capacity (shared by all engines).
const windowKeep = 64

// WindowStat is one closed aggregation window of one engine's events — a
// point on the live residual/staleness curve. Counter fields are sums over
// the window; Scheduled, Residual, and the Delay quantiles are the last
// sample's values.
type WindowStat struct {
	Engine          string  `json:"engine"`
	StartUnixNano   int64   `json:"start_unix_nano"`
	EndUnixNano     int64   `json:"end_unix_nano"`
	Samples         int64   `json:"samples"`
	Updates         int64   `json:"updates"`
	EdgeReads       int64   `json:"edge_reads"`
	EdgeWrites      int64   `json:"edge_writes"`
	Steals          int64   `json:"steals"`
	IdleTransitions int64   `json:"idle_transitions"`
	Scheduled       int64   `json:"scheduled"`
	Residual        float64 `json:"residual"`
	DelayP50        int64   `json:"delay_p50"`
	DelayP99        int64   `json:"delay_p99"`
	DelayMax        int64   `json:"delay_max"`
}

// Observer receives events from engines and fans them out to counters, the
// ring buffer, and any attached sinks. A nil *Observer is the disabled
// state: every method is safe to call on nil and does nothing, so engines
// guard their telemetry with a single pointer test.
//
// One Observer may be shared by any number of engines of any kinds; Emit
// is safe for concurrent use.
type Observer struct {
	opts Options

	counters [numEngines]engineCounters

	mu    sync.Mutex
	ring  []Event
	seq   uint64 // events ever emitted (ring head = seq % len)
	sinks []Sink
	// traceSource, when installed via SetTraceSource, serves the /trace
	// download endpoint.
	traceSource func(io.Writer) error
	// readiness, when installed via SetReadiness, drives the /readyz
	// endpoint's verdict.
	readiness func() []ReadyCheck
	// workerStats, when installed via SetWorkerStatsSource, adds
	// per-worker distributed-run counters to /metrics.
	workerStats func() []WorkerStats
	// phase is the coarse lifecycle label engines report via SetPhase,
	// shown by /statusz.
	phase string
	// delaySources holds the per-engine DelayClock snapshots installed via
	// SetDelaySource, rendered by /statusz and /metrics.
	delaySources [numEngines]func() DelayHist
	// pending accumulates the current (not yet closed) aggregation window
	// per engine; StartUnixNano == 0 marks an empty slot. windows is the
	// ring of closed windows (ordered oldest-first via winSeq).
	pending [numEngines]WindowStat
	windows []WindowStat
	winSeq  uint64

	startUnixNano int64
}

// ReadyCheck is one named readiness condition reported by /readyz. Unlike
// /healthz (pure liveness: the process answers), readiness is the
// application-level "safe to route traffic here" verdict — a graph is
// resident, the engine is not stalled, the distributed workers are
// supervised. A load balancer or the netdist supervisor gates traffic on
// the conjunction of all checks.
type ReadyCheck struct {
	// Name identifies the condition (e.g. "graph", "engine", "workers").
	Name string `json:"name"`
	// OK reports whether the condition currently holds.
	OK bool `json:"ok"`
	// Detail optionally explains the current state ("4/4 workers alive").
	Detail string `json:"detail,omitempty"`
}

// SetReadiness installs the /readyz source: a function returning the
// current readiness checks, called per request. Passing nil uninstalls it
// (the endpoint then reports not-ready). Safe on nil (no-op).
func (o *Observer) SetReadiness(fn func() []ReadyCheck) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.readiness = fn
	o.mu.Unlock()
}

func (o *Observer) readinessFn() func() []ReadyCheck {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.readiness
}

// WorkerStats is one distributed worker's counter snapshot, as reported by
// the netdist coordinator's supervision loop and rendered per-worker on
// /metrics.
type WorkerStats struct {
	// Worker labels the metrics series (conventionally the worker index).
	Worker string `json:"worker"`
	// Heartbeats counts heartbeats the supervisor received from the worker.
	Heartbeats int64 `json:"heartbeats"`
	// Retransmits counts data batches the worker re-sent after an ack
	// timeout (at-least-once delivery working its retry path).
	Retransmits int64 `json:"retransmits"`
	// Recoveries counts supervised restarts of the worker (crash → relaunch
	// → checkpoint restore → boundary repair).
	Recoveries int64 `json:"recoveries"`
	// Messages counts data messages the worker delivered.
	Messages int64 `json:"messages"`
	// Adopted counts deliveries that improved a vertex (monotone merges).
	Adopted int64 `json:"adopted"`
	// Unacked is the worker's current count of in-flight unacknowledged
	// batches (a gauge; non-zero under partition or loss).
	Unacked int64 `json:"unacked"`
}

// SetWorkerStatsSource installs the per-worker /metrics source: a function
// returning a snapshot of every worker's counters, called per scrape.
// Passing nil uninstalls it. Safe on nil (no-op).
func (o *Observer) SetWorkerStatsSource(fn func() []WorkerStats) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.workerStats = fn
	o.mu.Unlock()
}

func (o *Observer) workerStatsFn() func() []WorkerStats {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.workerStats
}

// New builds an Observer.
func New(opts Options) *Observer {
	if opts.RingSize <= 0 {
		opts.RingSize = 1024
	}
	if opts.WindowEvery <= 0 {
		opts.WindowEvery = time.Second
	}
	return &Observer{
		opts:          opts,
		ring:          make([]Event, 0, opts.RingSize),
		windows:       make([]WindowStat, 0, windowKeep),
		startUnixNano: time.Now().UnixNano(),
	}
}

// Enabled reports whether o is collecting (non-nil).
func (o *Observer) Enabled() bool { return o != nil }

// SampleConflicts reports whether engines should attach the conflict
// census for this observer.
func (o *Observer) SampleConflicts() bool { return o != nil && o.opts.SampleConflicts }

// Emit records one event: it stamps the time if unset, folds the event
// into the per-engine counters, stores it in the ring, and hands it to
// every attached sink. Emit on a nil Observer is a no-op. The event is
// taken by value and the steady-state path performs no heap allocation.
func (o *Observer) Emit(ev Event) {
	if o == nil {
		return
	}
	if ev.TimeUnixNano == 0 {
		ev.TimeUnixNano = time.Now().UnixNano()
	}
	k := ev.Engine
	if k >= numEngines {
		k = numEngines - 1
	}
	c := &o.counters[k]
	c.samples.Add(1)
	if n := ev.Iter + 1; n > c.iterations.Load() {
		c.iterations.Store(n)
	}
	c.updates.Add(ev.Updates)
	c.edgeReads.Add(ev.EdgeReads)
	c.edgeWrites.Add(ev.EdgeWrites)
	if ev.RWConflicts > 0 {
		c.rwConflicts.Add(ev.RWConflicts)
	}
	if ev.WWConflicts > 0 {
		c.wwConflicts.Add(ev.WWConflicts)
	}
	c.barrierWait.Add(ev.BarrierWaitNanos)
	c.duration.Add(ev.DurationNanos)
	c.messages.Add(ev.Messages)
	c.duplicates.Add(ev.Duplicates)
	c.drops.Add(ev.Drops)
	c.traceCommit.Add(ev.TraceCommits)
	c.contested.Add(ev.ContestedCommits)
	c.steals.Add(ev.Steals)
	c.idleTrans.Add(ev.IdleTransitions)
	c.scheduled.Store(ev.Scheduled)
	c.residual.Store(floatBits(ev.Residual))
	c.delayP50.Store(ev.DelayP50)
	c.delayP99.Store(ev.DelayP99)
	c.delayMax.Store(ev.DelayMax)

	o.mu.Lock()
	// Sinks (and the window fold) receive a pointer into the ring slot, not
	// &ev: taking ev's address across the Sink interface would force the
	// (stack) event to escape, costing one heap allocation per Emit.
	var slot *Event
	if len(o.ring) < cap(o.ring) {
		o.ring = append(o.ring, ev)
		slot = &o.ring[len(o.ring)-1]
	} else {
		i := o.seq % uint64(cap(o.ring))
		o.ring[i] = ev
		slot = &o.ring[i]
	}
	o.seq++
	o.windowFoldLocked(k, slot)
	for _, s := range o.sinks {
		s.Consume(slot)
	}
	o.mu.Unlock()
}

// AttachSink adds a sink; subsequent events are delivered to it in emit
// order, serialized under the observer's lock. Safe on nil (no-op).
func (o *Observer) AttachSink(s Sink) {
	if o == nil || s == nil {
		return
	}
	o.mu.Lock()
	o.sinks = append(o.sinks, s)
	o.mu.Unlock()
}

// windowFoldLocked folds one event into its engine's pending aggregation
// window and rolls the window into the closed ring once it spans
// Options.WindowEvery. Caller holds o.mu; no allocation in steady state
// (the ring is preallocated at windowKeep and then overwritten in place).
func (o *Observer) windowFoldLocked(k EngineKind, ev *Event) {
	p := &o.pending[k]
	if p.StartUnixNano == 0 {
		*p = WindowStat{Engine: k.String(), StartUnixNano: ev.TimeUnixNano}
	}
	p.EndUnixNano = ev.TimeUnixNano
	p.Samples++
	p.Updates += ev.Updates
	p.EdgeReads += ev.EdgeReads
	p.EdgeWrites += ev.EdgeWrites
	p.Steals += ev.Steals
	p.IdleTransitions += ev.IdleTransitions
	p.Scheduled = ev.Scheduled
	p.Residual = ev.Residual
	p.DelayP50, p.DelayP99, p.DelayMax = ev.DelayP50, ev.DelayP99, ev.DelayMax
	if ev.TimeUnixNano-p.StartUnixNano >= int64(o.opts.WindowEvery) {
		o.rollWindowLocked(k)
	}
}

// rollWindowLocked moves engine k's pending window (if any) into the closed
// ring and clears the pending slot. Caller holds o.mu.
func (o *Observer) rollWindowLocked(k EngineKind) {
	p := &o.pending[k]
	if p.StartUnixNano == 0 {
		return
	}
	if len(o.windows) < cap(o.windows) {
		o.windows = append(o.windows, *p)
	} else {
		o.windows[o.winSeq%uint64(cap(o.windows))] = *p
	}
	o.winSeq++
	*p = WindowStat{}
}

// Windows returns the closed aggregation windows in emit order (oldest
// first), across all engines. The final partial window of a run is included
// once Close (or a later roll) has flushed it. Safe on nil (returns nil).
func (o *Observer) Windows() []WindowStat {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]WindowStat, 0, len(o.windows))
	if len(o.windows) < cap(o.windows) {
		return append(out, o.windows...)
	}
	head := int(o.winSeq % uint64(cap(o.windows)))
	out = append(out, o.windows[head:]...)
	return append(out, o.windows[:head]...)
}

// Close flushes the pending partial aggregation windows into the closed
// ring, then flushes and closes every attached sink, returning the first
// error. Without the window flush, a short run (or the tail of any run)
// whose final events never spanned a full WindowEvery would vanish from
// Windows() and /statusz at shutdown. The observer itself remains usable
// (counters keep accumulating) but the closed sinks are detached. Safe on
// nil.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	for k := EngineKind(0); k < numEngines; k++ {
		o.rollWindowLocked(k)
	}
	sinks := o.sinks
	o.sinks = nil
	o.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Events returns a copy of the ring buffer's contents in emit order
// (oldest first). Safe on nil (returns nil).
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Event, 0, len(o.ring))
	if len(o.ring) < cap(o.ring) {
		return append(out, o.ring...)
	}
	head := int(o.seq % uint64(cap(o.ring)))
	out = append(out, o.ring[head:]...)
	return append(out, o.ring[:head]...)
}

// EngineStats is a point-in-time summary of one engine's accumulated
// telemetry, as rendered by /metrics and the expvar export.
type EngineStats struct {
	Engine           string  `json:"engine"`
	Samples          int64   `json:"samples"`
	Iterations       int64   `json:"iterations"`
	Updates          int64   `json:"updates"`
	EdgeReads        int64   `json:"edge_reads"`
	EdgeWrites       int64   `json:"edge_writes"`
	RWConflicts      int64   `json:"rw_conflicts"`
	WWConflicts      int64   `json:"ww_conflicts"`
	BarrierWait      int64   `json:"barrier_wait_ns"`
	Duration         int64   `json:"duration_ns"`
	Messages         int64   `json:"messages"`
	Duplicates       int64   `json:"duplicates"`
	Drops            int64   `json:"drops"`
	TraceCommits     int64   `json:"trace_commits"`
	ContestedCommits int64   `json:"contested_commits"`
	Steals           int64   `json:"steals"`
	IdleTransitions  int64   `json:"idle_transitions"`
	Scheduled        int64   `json:"scheduled_last"`
	Residual         float64 `json:"residual_last"`
	DelayP50         int64   `json:"delay_p50_last"`
	DelayP99         int64   `json:"delay_p99_last"`
	DelayMax         int64   `json:"delay_max_last"`
}

// Stats snapshots the accumulated counters for every engine kind, in label
// order. Safe on nil (returns nil).
func (o *Observer) Stats() []EngineStats {
	if o == nil {
		return nil
	}
	out := make([]EngineStats, numEngines)
	for k := range o.counters {
		c := &o.counters[k]
		out[k] = EngineStats{
			Engine:           EngineKind(k).String(),
			Samples:          c.samples.Load(),
			Iterations:       c.iterations.Load(),
			Updates:          c.updates.Load(),
			EdgeReads:        c.edgeReads.Load(),
			EdgeWrites:       c.edgeWrites.Load(),
			RWConflicts:      c.rwConflicts.Load(),
			WWConflicts:      c.wwConflicts.Load(),
			BarrierWait:      c.barrierWait.Load(),
			Duration:         c.duration.Load(),
			Messages:         c.messages.Load(),
			Duplicates:       c.duplicates.Load(),
			Drops:            c.drops.Load(),
			TraceCommits:     c.traceCommit.Load(),
			ContestedCommits: c.contested.Load(),
			Steals:           c.steals.Load(),
			IdleTransitions:  c.idleTrans.Load(),
			Scheduled:        c.scheduled.Load(),
			Residual:         floatFromBits(c.residual.Load()),
			DelayP50:         c.delayP50.Load(),
			DelayP99:         c.delayP99.Load(),
			DelayMax:         c.delayMax.Load(),
		}
	}
	return out
}

// SetPhase records the coarse lifecycle label engines report ("nosync:
// running", "netdist: loading graph", ...), shown live by /statusz. Engines
// pass compile-time string constants, so reporting allocates nothing beyond
// the call. Safe on nil (no-op).
func (o *Observer) SetPhase(phase string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.phase = phase
	o.mu.Unlock()
}

// Phase returns the most recently reported lifecycle label. Safe on nil.
func (o *Observer) Phase() string {
	if o == nil {
		return ""
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.phase
}

// SetDelaySource installs engine k's staleness-histogram snapshot function
// (conventionally the bound DelayClock.Hist of the engine's clock), called
// per /statusz render and /metrics scrape. Passing nil uninstalls it. Safe
// on nil (no-op).
func (o *Observer) SetDelaySource(k EngineKind, fn func() DelayHist) {
	if o == nil || k >= numEngines {
		return
	}
	o.mu.Lock()
	o.delaySources[k] = fn
	o.mu.Unlock()
}

// DelaySnapshot is one engine's staleness histogram, summarized for
// /statusz and the experiments.
type DelaySnapshot struct {
	Engine   string `json:"engine"`
	Count    int64  `json:"count"`
	Overflow int64  `json:"overflow"`
	P50      int64  `json:"p50"`
	P90      int64  `json:"p90"`
	P99      int64  `json:"p99"`
	Max      int64  `json:"max"`
}

// DelaySnapshots renders every installed delay source, in engine-label
// order, skipping engines with no source installed. Safe on nil.
func (o *Observer) DelaySnapshots() []DelaySnapshot {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	var fns [numEngines]func() DelayHist
	copy(fns[:], o.delaySources[:])
	o.mu.Unlock()
	var out []DelaySnapshot
	for k, fn := range fns {
		if fn == nil {
			continue
		}
		h := fn()
		out = append(out, DelaySnapshot{
			Engine:   EngineKind(k).String(),
			Count:    h.Count(),
			Overflow: h.Overflow(),
			P50:      h.Quantile(0.50),
			P90:      h.Quantile(0.90),
			P99:      h.Quantile(0.99),
			Max:      h.Max(),
		})
	}
	return out
}
