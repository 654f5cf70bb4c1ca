// Package autonomous implements the paper's *other* scheduling category:
// "by autonomous scheduling, a graph algorithm is allowed to define the
// execution path of the updates so as to accelerate its convergence"
// (Section I, citing GraphLab/Galois). Where the coordinated engine
// executes fixed per-iteration sets, the autonomous executor drains a
// priority queue: the algorithm attaches a priority to every scheduled
// update, and the executor always runs the most urgent one.
//
// Two classic payoffs are reproducible with this executor:
//
//   - SSSP with priority = candidate distance degenerates to Dijkstra's
//     algorithm: every vertex settles with its final distance the first
//     time it executes, so the update count drops to ~|V| against the
//     coordinated engine's per-iteration resweeps;
//   - delta-based PageRank with priority = pending residual focuses work
//     on the vertices that still move the solution.
//
// The executor is sequential by design — autonomous scheduling's value is
// the *order*, and a strict global priority order is inherently serial
// (the paper's deterministic/nondeterministic dichotomy applies to the
// coordinated engines; parallel relaxations of priority order are the
// domain of Galois-style speculation, out of scope).
package autonomous

import (
	"container/heap"
	"fmt"
	"time"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/trace"
)

// sampleWindow is the update count between telemetry samples; the executor
// is sequential, so a plain counter in the drain loop suffices.
const sampleWindow = 4096

// UpdateFunc is an autonomous update: it receives the vertex view plus a
// scheduler handle for posting prioritized work.
type UpdateFunc func(ctx core.VertexView, s *Scheduler)

// Result reports an autonomous run.
type Result struct {
	Updates   int64
	Converged bool
	Duration  time.Duration
}

// Scheduler is the priority queue the update function posts into.
// Smaller priority value = more urgent (natural for distances; negate
// residuals for largest-first).
type Scheduler struct {
	heap    workHeap
	pos     []int32 // vertex -> heap index, -1 if absent
	prio    []float64
	pending int
}

func newScheduler(n int) *Scheduler {
	s := &Scheduler{pos: make([]int32, n), prio: make([]float64, n)}
	s.heap.s = s
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

// Post schedules v with the given priority; if v is already queued, its
// priority is lowered to the minimum of old and new (decrease-key).
func (s *Scheduler) Post(v uint32, priority float64) {
	if s.pos[v] >= 0 {
		if priority < s.prio[v] {
			s.prio[v] = priority
			heap.Fix(&s.heap, int(s.pos[v]))
		}
		return
	}
	s.prio[v] = priority
	heap.Push(&s.heap, v)
}

// Len returns the number of queued updates.
func (s *Scheduler) Len() int { return s.heap.Len() }

func (s *Scheduler) pop() uint32 {
	return heap.Pop(&s.heap).(uint32)
}

// workHeap implements heap.Interface over vertex ids keyed by the
// scheduler's priority array. It needs access to the parent's slices, so
// it is embedded by pointer arithmetic via closure-free indirection: the
// heap stores the vertices and the Scheduler owns prio/pos.
type workHeap struct {
	items []uint32
	s     *Scheduler
}

func (h workHeap) Len() int { return len(h.items) }
func (h workHeap) Less(i, j int) bool {
	return h.s.prio[h.items[i]] < h.s.prio[h.items[j]]
}
func (h workHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.s.pos[h.items[i]] = int32(i)
	h.s.pos[h.items[j]] = int32(j)
}
func (h *workHeap) Push(x any) {
	v := x.(uint32)
	h.s.pos[v] = int32(len(h.items))
	h.items = append(h.items, v)
}
func (h *workHeap) Pop() any {
	last := len(h.items) - 1
	v := h.items[last]
	h.items = h.items[:last]
	h.s.pos[v] = -1
	return v
}

// Engine executes autonomous computations over the same vertex/edge state
// layout as the coordinated engine.
type Engine struct {
	g *graph.Graph

	Edges    edgedata.Store
	Vertices []uint64

	sched      *Scheduler
	maxUpdates int64

	// observer, when non-nil, receives one event per sampleWindow updates
	// plus a final one at quiescence; set with Observe before Run.
	observer *obs.Observer
	samples  int64

	// trace, when non-nil, records one event per executed update; set with
	// Trace before Run.
	trace *trace.Recorder
}

// NewEngine builds an autonomous executor for g. maxUpdates caps the run
// (0 = 1<<26).
func NewEngine(g *graph.Graph, maxUpdates int64) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("autonomous: nil graph")
	}
	if maxUpdates <= 0 {
		maxUpdates = 1 << 26
	}
	e := &Engine{
		g:          g,
		Edges:      edgedata.New(edgedata.ModeSequential, g.M()),
		Vertices:   make([]uint64, g.N()),
		sched:      newScheduler(g.N()),
		maxUpdates: maxUpdates,
	}
	return e, nil
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Post seeds the scheduler before Run.
func (e *Engine) Post(v uint32, priority float64) { e.sched.Post(v, priority) }

// Observe attaches an observer; nil detaches. Call before Run.
func (e *Engine) Observe(o *obs.Observer) { e.observer = o }

// Trace attaches an execution-path recorder: every executed update records
// one event (iteration 0, worker 0 — the executor is sequential, so the
// event sequence IS the execution path). Call before Run; nil detaches.
func (e *Engine) Trace(rec *trace.Recorder) { e.trace = rec }

// emitSample emits one telemetry window and resets the view's counters.
func (e *Engine) emitSample(view *autoView, updates, durationNs int64) {
	queued := int64(e.sched.Len())
	e.observer.Emit(obs.Event{
		Engine:        obs.EngineAutonomous,
		Iter:          e.samples,
		Scheduled:     queued,
		Updates:       updates,
		EdgeReads:     view.nReads,
		EdgeWrites:    view.nWrites,
		RWConflicts:   -1,
		WWConflicts:   -1,
		Residual:      float64(queued) / float64(e.g.N()),
		DurationNanos: durationNs,
	})
	e.samples++
	view.nReads, view.nWrites = 0, 0
}

// Run drains the priority queue to quiescence.
func (e *Engine) Run(update UpdateFunc) (Result, error) {
	if update == nil {
		return Result{}, fmt.Errorf("autonomous: nil update function")
	}
	res := Result{Converged: true}
	start := time.Now()
	view := &autoView{e: e}
	window := int64(0)
	for e.sched.Len() > 0 {
		if res.Updates >= e.maxUpdates {
			res.Converged = false
			break
		}
		v := e.sched.pop()
		view.bind(v)
		update(view, e.sched)
		res.Updates++
		if t := e.trace; t != nil {
			t.Record(0, 0, v, view.uWrites, e.Vertices[v])
		}
		if e.observer != nil {
			if window++; window >= sampleWindow {
				e.emitSample(view, window, 0)
				window = 0
			}
		}
	}
	res.Duration = time.Since(start)
	if e.observer != nil {
		e.emitSample(view, window, res.Duration.Nanoseconds())
	}
	return res, nil
}

// autoView adapts the engine to core.VertexView. Writing an edge does NOT
// auto-schedule the opposite endpoint — the autonomous algorithm owns its
// execution path and posts work itself via the Scheduler (the whole point
// of the category).
type autoView struct {
	core.Scope
	e *Engine

	// nReads/nWrites accumulate the telemetry window's edge accesses;
	// uWrites counts the current update's edge writes for the trace.
	nReads, nWrites int64
	uWrites         int
}

func (c *autoView) bind(v uint32) {
	c.Bind(c.e.g, v)
	c.uWrites = 0
}

func (c *autoView) Vertex() uint64     { return c.e.Vertices[c.V()] }
func (c *autoView) SetVertex(w uint64) { c.e.Vertices[c.V()] = w }
func (c *autoView) InEdgeVal(k int) uint64 {
	c.nReads++
	return c.e.Edges.Load(c.InEdgeID(k))
}
func (c *autoView) OutEdgeVal(k int) uint64 {
	c.nReads++
	return c.e.Edges.Load(c.OutEdgeID(k))
}
func (c *autoView) SetInEdgeVal(k int, w uint64) {
	c.nWrites++
	c.uWrites++
	c.e.Edges.Store(c.InEdgeID(k), w)
}
func (c *autoView) SetOutEdgeVal(k int, w uint64) {
	c.nWrites++
	c.uWrites++
	c.e.Edges.Store(c.OutEdgeID(k), w)
}
func (c *autoView) InEdgeVals() []uint64    { return c.GatherIn(c) }
func (c *autoView) OutEdgeVals() []uint64   { return c.GatherOut(c) }
func (c *autoView) SetOutEdgeVals(w uint64) { core.ScatterOut(c, w) }
func (c *autoView) ScheduleSelf()           {}
func (c *autoView) Yield()                  {}

var _ core.VertexView = (*autoView)(nil)
