package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/fault"
	"ndgraph/internal/frontier"
	"ndgraph/internal/obs"
	"ndgraph/internal/trace"
)

// Options configures a PSW execution.
type Options struct {
	// Threads is the intra-interval worker count; < 1 = GOMAXPROCS.
	Threads int
	// Mode is the atomicity method for the in-memory window buffers.
	// Parallel execution refuses ModeSequential.
	Mode edgedata.Mode
	// MaxIters caps full passes over the intervals; 0 = core.DefaultMaxIters.
	MaxIters int
	// Context, when non-nil, cancels the run; checked before every
	// interval, so a cancelled run stops within one interval load.
	Context context.Context
	// StallWindow enables the divergence watchdog (see core.Options).
	StallWindow int
	// Inject, when non-nil, arms the fault injector for the run: each
	// interval's in-memory window store is wrapped, faulted slots
	// reschedule both endpoints, and an injected crash aborts the pass.
	Inject *fault.Injector
	// Observer, when non-nil, receives one telemetry event per full pass
	// over the intervals (the PSW analog of an iteration).
	Observer *obs.Observer
	// Trace, when non-nil, records one event per executed update (pass,
	// worker, vertex, write count, committed vertex value). PSW runs record
	// update events only, never edge commits: window-slot ids are not
	// stable across iterations, so shard traces diff but do not replay.
	Trace *trace.Recorder
}

// Result reports a PSW run.
type Result struct {
	Iterations   int
	Updates      int64
	Converged    bool
	Duration     time.Duration
	BytesRead    int64
	BytesWritten int64
}

// Engine executes update functions over sharded storage with the
// parallel-sliding-windows schedule.
type Engine struct {
	st   *Storage
	opts Options

	front *frontier.Frontier

	// loop is the run lifecycle shared with the other barrier engines
	// (pool, cancellation, cap, watchdog, crash and panic handling,
	// telemetry); one of its iterations is one pass over the intervals.
	loop core.Loop

	// curSub is the interval working set currently executing; the fault
	// injector's heal hook reads it to map window slots back to endpoints.
	// Written only between interval dispatches (workers quiescent).
	curSub atomic.Pointer[subgraph]

	// flushBuf is the reusable write-back snapshot buffer; flush refills it
	// per interval instead of allocating a fresh O(window) slice each time.
	flushBuf []uint64
}

// NewEngine binds an executor to storage.
func NewEngine(st *Storage, opts Options) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("shard: nil storage")
	}
	if opts.Threads < 1 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	if opts.Threads > 1 && opts.Mode == edgedata.ModeSequential {
		return nil, fmt.Errorf("shard: %d threads require a concurrent edge-data mode", opts.Threads)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = core.DefaultMaxIters
	}
	f := frontier.NewFrontier(st.N())
	return &Engine{st: st, opts: opts, front: f, loop: core.Loop{
		Lifecycle: core.Lifecycle{Name: "shard", Context: opts.Context, Observer: opts.Observer},
		Kind:      obs.EngineShard, Threads: opts.Threads, N: st.N(),
		Front: f, MaxIters: opts.MaxIters, StallWindow: opts.StallWindow, Inject: opts.Inject,
	}}, nil
}

// Frontier exposes the scheduled set for seeding.
func (e *Engine) Frontier() *frontier.Frontier { return e.front }

// Close releases the engine's persistent worker pool. The engine stays
// usable — the next Run re-creates the pool — but Close makes the release
// deterministic instead of waiting for the pool's finalizer.
func (e *Engine) Close() { e.loop.Close() }

// Run executes update to convergence. One iteration is one pass over all
// intervals; within the pass, interval i's subgraph (shard i in full plus
// the interval's window from every other shard) is loaded, scheduled
// vertices of the interval execute in parallel, and dirty values are
// written back before the next interval loads — so later intervals see
// earlier intervals' writes (asynchronous semantics across intervals, as
// in GraphChi).
func (e *Engine) Run(update core.UpdateFunc) (Result, error) {
	if update == nil {
		return Result{}, fmt.Errorf("shard: nil update function")
	}
	if inj := e.opts.Inject; inj != nil {
		// Heal rule: window slots map back to endpoints through the
		// currently loaded interval's working set.
		inj.Arm(func(slot uint32) {
			sub := e.curSub.Load()
			if sub == nil || int(2*slot+1) >= len(sub.ends) {
				return
			}
			e.front.Schedule(int(sub.ends[2*slot]))
			e.front.Schedule(int(sub.ends[2*slot+1]))
		})
		defer inj.Disarm()
	}
	var res Result
	pool := e.loop.Pool()
	pass := func(iter int, members []int) (obs.Event, error) {
		ev := obs.Event{RWConflicts: -1, WWConflicts: -1}
		cursor := 0
		for i := range e.st.intervals {
			iv := e.st.intervals[i]
			// Scheduled vertices of this interval (members ascending).
			lo := cursor
			for cursor < len(members) && uint32(members[cursor]) < iv.Hi {
				cursor++
			}
			scheduled := members[lo:cursor]
			if len(scheduled) == 0 {
				continue
			}
			if ctx := e.opts.Context; ctx != nil {
				if err := ctx.Err(); err != nil {
					return ev, err
				}
			}
			sub, err := e.load(i)
			if err != nil {
				return ev, err
			}
			res.BytesRead += sub.bytesRead
			e.curSub.Store(sub)

			run := func(worker, v int) {
				if e.loop.Stopped() {
					return
				}
				defer func() {
					if r := recover(); r != nil {
						e.loop.RecordPanic(uint32(v), r)
					}
				}()
				view := &sub.views[worker]
				view.bind(uint32(v))
				update(view)
				if t := e.opts.Trace; t != nil {
					t.Record(iter, worker, uint32(v), view.uWrites, e.st.Vertices[v])
				}
			}
			pool.RunBlocks(scheduled, run)
			e.curSub.Store(nil)
			// The views die with the interval; bank their counters on the
			// pass's event.
			for w := range sub.views {
				ev.EdgeReads += sub.views[w].nReads
				ev.EdgeWrites += sub.views[w].nWrites
			}
			// A panicked interval is not written back.
			if err := e.loop.Cause(); err != nil {
				return ev, err
			}
			res.Updates += int64(len(scheduled))
			ev.Updates += int64(len(scheduled))

			written, err := e.flush(sub)
			if err != nil {
				return ev, err
			}
			res.BytesWritten += written
		}
		return ev, nil
	}
	lr, err := e.loop.Run(pass)
	res.Iterations, res.Converged, res.Duration = lr.Iterations, lr.Converged, lr.Duration
	return res, err
}

// loadedRange maps a slice of the in-memory value store back to its
// on-disk location.
type loadedRange struct {
	shard    int
	off      int64 // record offset within the shard
	count    int64
	slotBase uint32 // first slot in the combined store
}

// subgraph is interval i's in-memory working set.
type subgraph struct {
	interval  Interval
	store     edgedata.Store
	ranges    []loadedRange
	bytesRead int64
	// ends maps window slot s to its endpoints (ends[2s], ends[2s+1]);
	// built only under fault injection, for the heal hook.
	ends []uint32

	// Per local vertex adjacency: in-edges (from shard i) and out-edges
	// (from the windows).
	inSrc   [][]uint32
	inSlot  [][]uint32
	outDst  [][]uint32
	outSlot [][]uint32

	views []shardView
	eng   *Engine
}

// load builds interval i's subgraph from disk.
func (e *Engine) load(i int) (*subgraph, error) {
	iv := e.st.intervals[i]
	sub := &subgraph{
		interval: iv,
		eng:      e,
		inSrc:    make([][]uint32, iv.Len()),
		inSlot:   make([][]uint32, iv.Len()),
		outDst:   make([][]uint32, iv.Len()),
		outSlot:  make([][]uint32, iv.Len()),
	}

	// Plan the loads: shard i in full, plus interval i's window from
	// every other shard. The window of shard i over interval i is a
	// subrange of the full shard, so it is not loaded twice.
	var plan []loadedRange
	total := int64(0)
	fullShard := loadedRange{shard: i, off: 0, count: e.st.shards[i].Edges}
	fullShard.slotBase = 0
	total += fullShard.count
	plan = append(plan, fullShard)
	for k := range e.st.shards {
		if k == i {
			continue
		}
		w := e.st.shards[k].Windows[i]
		if w.Count == 0 {
			continue
		}
		plan = append(plan, loadedRange{shard: k, off: w.Off, count: w.Count, slotBase: uint32(total)})
		total += w.Count
	}

	sub.store = edgedata.New(e.opts.Mode, int(total))
	if e.opts.Inject != nil {
		sub.ends = make([]uint32, 2*total)
	}
	vals := make([]uint64, total)
	slot := int64(0)
	for _, r := range plan {
		recs, err := e.st.readRecords(r.shard, r.off, r.count)
		if err != nil {
			return nil, err
		}
		if err := e.st.readValues(r.shard, r.off, r.count, vals[slot:slot+r.count]); err != nil {
			return nil, err
		}
		sub.bytesRead += r.count * (recordBytes + valueBytes)
		// Index adjacency.
		isFull := r.shard == i
		for j := int64(0); j < r.count; j++ {
			src, dst := recs[2*j], recs[2*j+1]
			s := uint32(slot + j)
			if sub.ends != nil {
				sub.ends[2*s], sub.ends[2*s+1] = src, dst
			}
			if isFull {
				// In-edge of dst (dst ∈ interval i by shard invariant).
				lv := dst - iv.Lo
				sub.inSrc[lv] = append(sub.inSrc[lv], src)
				sub.inSlot[lv] = append(sub.inSlot[lv], s)
				// The diagonal block doubles as out-edges of interval i.
				if iv.Contains(src) {
					lo := src - iv.Lo
					sub.outDst[lo] = append(sub.outDst[lo], dst)
					sub.outSlot[lo] = append(sub.outSlot[lo], s)
				}
			} else {
				// Window record: out-edge of src (src ∈ interval i).
				lv := src - iv.Lo
				sub.outDst[lv] = append(sub.outDst[lv], dst)
				sub.outSlot[lv] = append(sub.outSlot[lv], s)
			}
		}
		slot += r.count
	}
	for j, v := range vals {
		sub.store.Store(uint32(j), v)
	}
	if inj := e.opts.Inject; inj != nil {
		// Wrap after the fill so the stale-read shadow seeds from the
		// loaded values, not zeros.
		sub.store = inj.Wrap(sub.store)
	}
	sub.ranges = plan
	sub.views = make([]shardView, e.opts.Threads)
	for w := range sub.views {
		sub.views[w].sub = sub
	}
	return sub, nil
}

// flush writes the working set's values back to their shards.
func (e *Engine) flush(sub *subgraph) (int64, error) {
	var written int64
	e.flushBuf = sub.store.SnapshotInto(e.flushBuf)
	snap := e.flushBuf
	for _, r := range sub.ranges {
		if err := e.st.writeValues(r.shard, r.off, r.count, snap[r.slotBase:int64(r.slotBase)+r.count]); err != nil {
			return written, err
		}
		written += r.count * valueBytes
	}
	return written, nil
}

// shardView adapts a loaded subgraph to core.VertexView.
type shardView struct {
	core.Scope
	sub *subgraph
	// outSlot holds the bound vertex's out-edge slots, which come from
	// several windows and are not contiguous (see OutEdgeID).
	outSlot []uint32

	// nReads/nWrites count window-slot accesses for the observer;
	// worker-private, banked on the pass's event after each interval
	// dispatch.
	nReads, nWrites int64
	// uWrites counts the bound update's writes for the execution-path
	// trace.
	uWrites int
}

func (c *shardView) bind(v uint32) {
	lv := v - c.sub.interval.Lo
	c.outSlot = c.sub.outSlot[lv]
	c.BindEdges(v, c.sub.inSrc[lv], c.sub.inSlot[lv], c.sub.outDst[lv], 0)
	c.uWrites = 0
}

func (c *shardView) Vertex() uint64     { return c.sub.eng.st.Vertices[c.V()] }
func (c *shardView) SetVertex(w uint64) { c.sub.eng.st.Vertices[c.V()] = w }

// InEdgeID and OutEdgeID return window-local slot ids; they are stable
// within one interval execution but NOT across iterations, so shard-based
// runs only suit algorithms without immutable per-edge side arrays (the
// canonical-index contract of the in-memory engine does not transfer).
// OutEdgeID replaces the Scope's, whose out-edge ids are contiguous.
func (c *shardView) OutEdgeID(k int) uint32 { return c.outSlot[k] }

func (c *shardView) InEdgeVal(k int) uint64 {
	c.nReads++
	return c.sub.store.Load(c.InEdgeID(k))
}

func (c *shardView) OutEdgeVal(k int) uint64 {
	c.nReads++
	return c.sub.store.Load(c.outSlot[k])
}

func (c *shardView) SetInEdgeVal(k int, w uint64) {
	c.nWrites++
	c.uWrites++
	c.sub.store.Store(c.InEdgeID(k), w)
	c.sub.eng.front.Schedule(int(c.InNeighbor(k)))
}

func (c *shardView) SetOutEdgeVal(k int, w uint64) {
	c.nWrites++
	c.uWrites++
	c.sub.store.Store(c.outSlot[k], w)
	c.sub.eng.front.Schedule(int(c.OutNeighbor(k)))
}

func (c *shardView) InEdgeVals() []uint64    { return c.GatherIn(c) }
func (c *shardView) OutEdgeVals() []uint64   { return c.GatherOut(c) }
func (c *shardView) SetOutEdgeVals(w uint64) { core.ScatterOut(c, w) }

func (c *shardView) ScheduleSelf() { c.sub.eng.front.Schedule(int(c.V())) }
func (c *shardView) Yield()        {}

var _ core.VertexView = (*shardView)(nil)
