package core

import (
	"runtime"
	"unsafe"

	"ndgraph/internal/edgedata"
)

// Ctx is the update-function view of one vertex: the vertex's own data
// word plus read/write access to the data words of its incident edges —
// exactly the pull-mode scope of the paper's Algorithm 1. One Ctx exists
// per worker and is re-bound to each vertex the worker processes; update
// functions must not retain it across calls.
//
// The Set*EdgeVal methods implement the system model's task-generation
// rule: writing an incident edge posts the opposite endpoint into the next
// iteration's scheduled set.
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

// ctxState is everything a Ctx holds; Ctx adds only the pad.
type ctxState struct {
	eng *Engine
	Scope
	// worker is the owning worker's index, used to shard staleness
	// observations when a delay clock is attached.
	worker int

	// plain is set for the duration of a Run with no per-access
	// instrumentation (Engine.plainRun): every edge access is then just the
	// store operation plus the access counters, and the bulk accessors make
	// one store call per update. Never set on a recordOnly context.
	plain bool

	// recordOnly marks a PotentialCensus replay context: reads come from
	// the engine's pre-iteration snapshot, every access is recorded to the
	// census, and all effects (vertex writes, edge writes, scheduling) are
	// discarded. scratchVertex absorbs SetVertex so the replayed update
	// still sees its own intra-update vertex writes.
	recordOnly    bool
	scratchVertex uint64

	// writes counts edge writes performed since the last bind, for the
	// execution-path trace.
	writes int

	// traceIdx is the capture index of the running update in the trace
	// recorder (-1 when tracing is off or the event was dropped); it tags
	// recorded edge commits with their owning update.
	traceIdx int64

	// sumReads / sumWrites accumulate edge accesses across binds. They are
	// worker-private (no synchronization) and drained by the engine at the
	// iteration barrier when an observer is attached; the unconditional
	// increment is one predictable instruction, cheaper than a branch.
	sumReads, sumWrites int64
}

// bind points the Ctx at vertex v.
func (c *Ctx) bind(v uint32) {
	c.Bind(c.eng.g, v)
	c.writes = 0
	if c.recordOnly {
		c.scratchVertex = c.eng.Vertices[v]
	}
}

// Vertex returns the vertex's data word D_v.
func (c *Ctx) Vertex() uint64 {
	if c.recordOnly {
		return c.scratchVertex
	}
	return c.eng.Vertices[c.v]
}

// SetVertex stores the vertex's data word. Only f(v) may write slot v, so
// this needs no synchronization.
func (c *Ctx) SetVertex(w uint64) {
	if c.recordOnly {
		c.scratchVertex = w
		return
	}
	c.eng.Vertices[c.v] = w
}

// load reads an edge word, honoring replay and BSP shadow reads.
func (c *Ctx) load(e uint32) uint64 {
	if c.recordOnly {
		return c.eng.probeShadow[e]
	}
	if shadow := c.eng.bspShadow; shadow != nil {
		return shadow[e]
	}
	return c.eng.Edges.Load(e)
}

// recording reports whether this context should feed the census: when the
// engine runs a potential census, only the replay context records; when it
// runs an observed census, only the real context does. Self-loop accesses
// never record — both "endpoints" of edge (v,v) are the same update, so no
// cross-update conflict is possible there (neighbor is the other endpoint
// of the edge being touched).
func (c *Ctx) recording(neighbor uint32) bool {
	if c.eng.census == nil || neighbor == c.v {
		return false
	}
	return c.recordOnly == c.eng.opts.PotentialCensus
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
// census and the delay clock and honors the replay and BSP shadows.
func (c *Ctx) observedLoad(e, neighbor uint32, side edgedata.Side) uint64 {
	if c.recording(neighbor) {
		c.eng.census.RecordRead(e, side)
	}
	if cl := c.eng.clock; cl != nil && !c.recordOnly {
		cl.ObserveRead(c.worker, e)
	}
	return c.load(e)
}

// SetInEdgeVal writes the data word of the k-th in-edge and schedules its
// source for the next iteration (task-generation rule).
func (c *Ctx) SetInEdgeVal(k int, w uint64) {
	c.store(c.inIdx[k], c.inSrc[k], edgedata.SideDst, w)
}

// SetOutEdgeVal writes the data word of the k-th out-edge and schedules
// its destination for the next iteration (task-generation rule).
func (c *Ctx) SetOutEdgeVal(k int, w uint64) {
	c.store(c.outLo+uint32(k), c.outDst[k], edgedata.SideSrc, w)
}

// store writes edge e, whose other endpoint is neighbor, and schedules
// that endpoint.
func (c *Ctx) store(e, neighbor uint32, side edgedata.Side, w uint64) {
	if c.plain {
		c.eng.Edges.Store(e, w)
	} else {
		if c.recording(neighbor) {
			c.eng.census.RecordWrite(e, side)
		}
		if c.recordOnly {
			return
		}
		c.yield()
		if obs := c.eng.opts.OnEdgeWrite; obs != nil {
			obs(e, c.eng.Edges.Load(e), w)
		}
		if c.eng.traceCommits {
			c.eng.commitStore(c.traceIdx, e, w)
		} else {
			c.eng.Edges.Store(e, w)
		}
		if cl := c.eng.clock; cl != nil {
			cl.Stamp(e)
		}
	}
	c.writes++
	c.sumWrites++
	c.eng.front.Schedule(int(neighbor))
}

// InEdgeVals reads every in-edge word into the worker's scratch: one
// store call on a plain run, the per-edge path otherwise.
func (c *Ctx) InEdgeVals() []uint64 {
	if !c.plain {
		return c.GatherIn(c)
	}
	c.sumReads += int64(len(c.inIdx))
	return c.LoadIn(c.eng.Edges)
}

// OutEdgeVals reads every out-edge word into the worker's scratch.
func (c *Ctx) OutEdgeVals() []uint64 {
	if !c.plain {
		return c.GatherOut(c)
	}
	c.sumReads += int64(len(c.outDst))
	return c.LoadOut(c.eng.Edges)
}

// SetOutEdgeVals writes w to every out-edge and schedules every
// destination for the next iteration.
func (c *Ctx) SetOutEdgeVals(w uint64) {
	if !c.plain {
		ScatterOut(c, w)
		return
	}
	n := len(c.outDst)
	c.writes += n
	c.sumWrites += int64(n)
	c.eng.Edges.FillRange(c.outLo, c.outLo+uint32(n), w)
	c.eng.front.ScheduleEach(c.outDst)
}

// ScheduleSelf re-posts the vertex itself for the next iteration, for
// algorithms whose local work is not finished (rarely needed in pull
// mode; provided for completeness).
func (c *Ctx) ScheduleSelf() {
	if c.recordOnly {
		return
	}
	c.eng.front.Schedule(int(c.v))
}

// Yield cooperatively yields the processor between an update's gather and
// scatter phases when Amplify is on, widening the windows in which
// conflicting updates interleave. Algorithms may call it at their
// gather/scatter boundary; the Set*EdgeVal methods also call it before
// every write.
func (c *Ctx) Yield() { c.yield() }

func (c *Ctx) yield() {
	if c.eng.opts.Amplify && !c.recordOnly {
		runtime.Gosched()
	}
}
