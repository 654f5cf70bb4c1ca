package core

import (
	"runtime"
	"unsafe"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/sched"
)

// Ctx is the update-function view of one vertex: the vertex's own data
// word plus read/write access to the data words of its incident edges —
// exactly the pull-mode scope of the paper's Algorithm 1. One Ctx exists
// per worker (plus a dry shadow per worker under PotentialCensus, and one
// dry context per ReplayTrace) and is re-bound to each vertex it
// processes; update functions must not retain it across calls.
//
// The Set*EdgeVal methods implement the system model's task-generation
// rule: writing an incident edge wakes the opposite endpoint. The three
// scheduling sites (store, SetOutEdgeVals and ScheduleSelf) post every
// wakeup into a structure of the writing worker's own: its deque under
// NoSync (Engine.ns non-nil), its private next-set bitset in the frontier
// (ScheduleOn) under a barrier scheduler, which Advance folds into S_{n+1}
// at the barrier. No wakeup touches a word another worker writes.
type Ctx struct {
	ctxState
	// The engine keeps one Ctx per worker in one cache-line-aligned array
	// (newCtxs), and every update writes its worker's counters, so the pad
	// rounds Ctx up to whole cache lines: no two workers' contexts share one.
	_ [(cacheLine - unsafe.Sizeof(ctxState{})%cacheLine) % cacheLine]byte
}

// cacheLine is the coherence granule the per-worker contexts are padded
// and aligned to.
const cacheLine = 64

// ctxState is everything a Ctx holds; Ctx adds only the pad. v through out
// are the update's scope: its vertex, neighbours, incident edges' indices
// and the word buffers behind the bulk reads. Keep their order and offsets:
// regrouping them moved solve times by 7–30 % (DESIGN.md §17).
type ctxState struct {
	eng *Engine

	v      uint32
	inSrc  []uint32 // sources of in-edges
	inIdx  []uint32 // canonical indices of in-edges
	outDst []uint32 // destinations of out-edges
	outLo  uint32   // canonical index of the first out-edge
	// in and out grow to the largest degree the worker has met and are
	// reused from then on, so a steady-state update allocates nothing.
	in, out []uint64

	// worker is the owning worker's index, used to shard staleness
	// observations when a delay clock is attached.
	worker int

	// plain is set for the duration of a Run with no per-access
	// instrumentation (Engine.plainRun): every edge access is then just the
	// store operation plus the access counters, and the bulk accessors make
	// one store call per update. Never set on a dry context.
	plain bool

	// dry marks a context whose update has no effect on the run: a
	// PotentialCensus shadow, which reads the pre-iteration snapshot and
	// records every access to the census, or ReplayTrace's, which reads the
	// live store and hands each edge write to replay. Neither schedules,
	// yields, stamps the delay clock or counts toward telemetry;
	// scratchVertex absorbs SetVertex so the update still sees its own
	// vertex writes.
	dry           bool
	scratchVertex uint64
	replay        *replayer

	// traceIdx is the capture index of the running update in the trace
	// recorder (-1 when tracing is off or the event was dropped); it tags
	// recorded edge commits with their owning update.
	traceIdx int64

	// sumReads / sumWrites accumulate edge accesses across binds. They are
	// worker-private (no synchronization) and drained when an observer is
	// attached — at the iteration barrier, or by NoSync's telemetry sample;
	// the unconditional increment is one predictable instruction, cheaper
	// than a branch. A traced update's write count is their growth.
	sumReads, sumWrites int64
}

// bind points the Ctx at vertex v.
func (c *Ctx) bind(v uint32) {
	g := c.eng.g
	c.v = v
	c.inSrc, c.inIdx = g.InNeighbors(v), g.InEdgeIndices(v)
	c.outDst = g.OutNeighbors(v)
	c.outLo, _ = g.OutEdgeIndex(v)
	if c.dry {
		c.scratchVertex = c.eng.Vertices[v]
	}
}

// V returns the vertex this update is running on.
func (c *Ctx) V() uint32 { return c.v }

// InDegree returns the number of in-edges of the vertex.
func (c *Ctx) InDegree() int { return len(c.inSrc) }

// OutDegree returns the number of out-edges of the vertex.
func (c *Ctx) OutDegree() int { return len(c.outDst) }

// InNeighbor returns the source of the k-th in-edge.
func (c *Ctx) InNeighbor(k int) uint32 { return c.inSrc[k] }

// OutNeighbor returns the destination of the k-th out-edge.
func (c *Ctx) OutNeighbor(k int) uint32 { return c.outDst[k] }

// InEdgeID returns the canonical edge index of the k-th in-edge, usable
// against immutable side arrays (e.g. SSSP weights).
func (c *Ctx) InEdgeID(k int) uint32 { return c.inIdx[k] }

// OutEdgeID returns the canonical edge index of the k-th out-edge.
func (c *Ctx) OutEdgeID(k int) uint32 { return c.outLo + uint32(k) }

// Vertex returns the vertex's data word D_v.
func (c *Ctx) Vertex() uint64 {
	if c.dry {
		return c.scratchVertex
	}
	return c.eng.Vertices[c.v]
}

// SetVertex stores the vertex's data word. Only f(v) may write slot v, so
// this needs no synchronization.
func (c *Ctx) SetVertex(w uint64) {
	if c.dry {
		c.scratchVertex = w
		return
	}
	c.eng.Vertices[c.v] = w
}

// load reads an edge word: a census shadow context and every context of a
// Synchronous run read the engine's pre-iteration snapshot, replay the
// live store, and every other context the live store on its worker's
// behalf.
func (c *Ctx) load(e uint32) uint64 {
	if c.replay == nil && (c.dry || c.eng.opts.Scheduler == sched.Synchronous) {
		return c.eng.shadow[e]
	}
	if c.dry {
		return c.eng.Edges.Load(e)
	}
	return c.liveLoad(e)
}

// liveLoad and liveStore are a non-dry context's accesses to the live
// store on a run that is not plain. Under a fault injector they take its
// worker path, so a fault heals on this context's worker.
func (c *Ctx) liveLoad(e uint32) uint64 {
	if f := c.eng.faults; f != nil {
		return f.LoadOn(c.worker, e)
	}
	return c.eng.Edges.Load(e)
}

func (c *Ctx) liveStore(e uint32, w uint64) {
	if f := c.eng.faults; f != nil {
		f.StoreOn(c.worker, e, w)
		return
	}
	c.eng.Edges.Store(e, w)
}

// recording reports whether this context should feed the census: when the
// engine runs a potential census, only the shadow context records; when it
// runs an observed census, only the real context does; replay never does.
// Self-loop accesses never record — both "endpoints" of edge (v,v) are the
// same update, so no cross-update conflict is possible there (neighbor is
// the other endpoint of the edge being touched).
func (c *Ctx) recording(neighbor uint32) bool {
	if c.eng.census == nil || neighbor == c.v || c.replay != nil {
		return false
	}
	return c.dry == c.eng.opts.PotentialCensus
}

// InEdgeVal reads the data word of the k-th in-edge (a gather access from
// the destination side).
func (c *Ctx) InEdgeVal(k int) uint64 {
	c.sumReads++
	if c.plain {
		return c.eng.Edges.Load(c.inIdx[k])
	}
	return c.observedLoad(c.inIdx[k], c.inSrc[k], edgedata.SideDst)
}

// OutEdgeVal reads the data word of the k-th out-edge (a source-side
// read, used by algorithms that inspect before scattering).
func (c *Ctx) OutEdgeVal(k int) uint64 {
	c.sumReads++
	if c.plain {
		return c.eng.Edges.Load(c.outLo + uint32(k))
	}
	return c.observedLoad(c.outLo+uint32(k), c.outDst[k], edgedata.SideSrc)
}

// observedLoad is the edge read of a run that is not plain: it feeds the
// census and the delay clock and honors the census and BSP snapshot.
func (c *Ctx) observedLoad(e, neighbor uint32, side edgedata.Side) uint64 {
	if c.recording(neighbor) {
		c.eng.census.RecordRead(e, side)
	}
	if cl := c.eng.clock; cl != nil && !c.dry {
		cl.ObserveRead(c.worker, e)
	}
	return c.load(e)
}

// SetInEdgeVal writes the data word of the k-th in-edge and wakes its
// source (task-generation rule).
func (c *Ctx) SetInEdgeVal(k int, w uint64) {
	c.store(c.inIdx[k], c.inSrc[k], edgedata.SideDst, w)
}

// SetOutEdgeVal writes the data word of the k-th out-edge and wakes its
// destination (task-generation rule).
func (c *Ctx) SetOutEdgeVal(k int, w uint64) {
	c.store(c.outLo+uint32(k), c.outDst[k], edgedata.SideSrc, w)
}

// store writes edge e, whose other endpoint is neighbor, and wakes that
// endpoint.
func (c *Ctx) store(e, neighbor uint32, side edgedata.Side, w uint64) {
	if c.plain {
		c.eng.Edges.Store(e, w)
	} else {
		if c.recording(neighbor) {
			c.eng.census.RecordWrite(e, side)
		}
		if c.dry {
			if c.replay != nil {
				c.replay.commitNext(e, w)
			}
			return
		}
		c.yield()
		if obs := c.eng.opts.OnEdgeWrite; obs != nil {
			obs(e, c.liveLoad(e), w)
		}
		if c.eng.traceCommits {
			c.commitStore(e, w)
		} else {
			c.liveStore(e, w)
		}
		if cl := c.eng.clock; cl != nil {
			cl.Stamp(e)
		}
	}
	c.sumWrites++
	if x := c.eng.ns; x != nil {
		x.post(c.worker, int(neighbor))
		return
	}
	c.eng.front.ScheduleOn(c.worker, int(neighbor))
}

// sized returns buf resized to n words, reallocating (with headroom, so
// growth is amortized) only when its capacity is short.
func sized(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n, 2*n)
	}
	return buf[:n]
}

// InEdgeVals reads every in-edge word into the worker's scratch: one
// Gather of the in-edges' canonical indices on a plain run, otherwise one
// InEdgeVal per edge, so every per-access side effect is word-for-word
// that of the per-edge API.
func (c *Ctx) InEdgeVals() []uint64 {
	c.in = sized(c.in, len(c.inIdx))
	if !c.plain {
		for k := range c.in {
			c.in[k] = c.InEdgeVal(k)
		}
		return c.in
	}
	c.sumReads += int64(len(c.inIdx))
	c.eng.Edges.Gather(c.in, c.inIdx)
	return c.in
}

// OutEdgeVals reads every out-edge word into the worker's scratch: one
// LoadRange on a plain run (the out-edges are contiguous from the first),
// one OutEdgeVal per edge otherwise.
func (c *Ctx) OutEdgeVals() []uint64 {
	c.out = sized(c.out, len(c.outDst))
	if !c.plain {
		for k := range c.out {
			c.out[k] = c.OutEdgeVal(k)
		}
		return c.out
	}
	c.sumReads += int64(len(c.outDst))
	c.eng.Edges.LoadRange(c.out, c.outLo)
	return c.out
}

// SetOutEdgeVals writes w to every out-edge and wakes every destination:
// one FillRange on a plain run, one SetOutEdgeVal per edge otherwise.
func (c *Ctx) SetOutEdgeVals(w uint64) {
	if !c.plain {
		for k := range c.outDst {
			c.SetOutEdgeVal(k, w)
		}
		return
	}
	n := len(c.outDst)
	c.sumWrites += int64(n)
	c.eng.Edges.FillRange(c.outLo, c.outLo+uint32(n), w)
	if x := c.eng.ns; x != nil {
		for _, d := range c.outDst {
			x.post(c.worker, int(d))
		}
		return
	}
	c.eng.front.ScheduleEachOn(c.worker, c.outDst)
}

// ScheduleSelf re-posts the vertex itself, for algorithms whose local work
// is not finished (rarely needed in pull mode; provided for completeness).
func (c *Ctx) ScheduleSelf() {
	if c.dry {
		return
	}
	if x := c.eng.ns; x != nil {
		x.post(c.worker, int(c.v))
		return
	}
	c.eng.front.ScheduleOn(c.worker, int(c.v))
}

// Yield cooperatively yields the processor between an update's gather and
// scatter phases when Amplify is on, widening the windows in which
// conflicting updates interleave. Algorithms may call it at their
// gather/scatter boundary; the Set*EdgeVal methods also call it before
// every write.
func (c *Ctx) Yield() { c.yield() }

func (c *Ctx) yield() {
	if c.eng.opts.Amplify && !c.dry {
		runtime.Gosched()
	}
}
