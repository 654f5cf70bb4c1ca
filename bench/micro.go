package main

import (
	"bytes"
	"runtime"
	"time"

	"ndgraph"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/frontier"
	"ndgraph/internal/loader"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// The micro-kernels time one layer's public operations in isolation, on the
// workload's own graph where the layer's cost depends on it. Each sweep is
// timed three times and the median kept.

const microReps = 3

// sink defeats dead-code elimination of the load sweeps.
var sink uint64

func medianOf(reps int, fn func() float64) float64 {
	out := make([]float64, reps)
	for i := range out {
		out[i] = fn()
	}
	return median(out)
}

func secondsOf(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// microEdgeData sweeps all M edge words in gather order — the concatenated
// InEdgeIndices of every vertex, the order a pull-mode update reads them —
// through the Store interface, per atomicity mode.
func microEdgeData(res *result, g *ndgraph.Graph) {
	m := g.M()
	order := make([]uint32, 0, m)
	for v := uint32(0); int(v) < g.N(); v++ {
		order = append(order, g.InEdgeIndices(v)...)
	}
	modes := []edgedata.Mode{edgedata.ModeAtomic, edgedata.ModeLocked}
	if !raceEnabled {
		modes = append(modes, edgedata.ModeAligned) // benign races by design
	}
	perOp := func(s float64) float64 { return s * 1e9 / float64(m) }
	for _, mode := range modes {
		store := edgedata.New(mode, m)
		name := "edgedata." + modeName(mode)
		load := medianOf(microReps, func() float64 {
			return secondsOf(func() {
				var acc uint64
				for _, e := range order {
					acc += store.Load(e)
				}
				sink += acc
			})
		})
		res.set(name+".load_ns", "ns", perOp(load))
		res.set(name+".store_ns", "ns", perOp(medianOf(microReps, func() float64 {
			return secondsOf(func() {
				for i, e := range order {
					store.Store(e, uint64(i))
				}
			})
		})))
		if mode == edgedata.ModeAtomic {
			res.set(name+".cas_ns", "ns", perOp(medianOf(microReps, func() float64 {
				return secondsOf(func() {
					for _, e := range order {
						store.CompareAndSwap(e, store.Load(e), uint64(e))
					}
				})
			})))
			// Computed bytes: one 8-byte word per edge; the 4-byte index
			// stream and cache misses are not counted.
			res.set("edgedata.gather_gbps", "GB/s", float64(m)*8/load/1e9)
		}
	}
	if raceEnabled {
		res.set("edgedata.aligned.load_ns", "ns", 0)
		res.set("edgedata.aligned.store_ns", "ns", 0)
	}
}

func modeName(m edgedata.Mode) string {
	switch m {
	case edgedata.ModeLocked:
		return "locked"
	case edgedata.ModeAligned:
		return "aligned"
	}
	return "atomic"
}

// memBWMaxBytes caps each array of the bandwidth copy. The rule is four times
// the OS-reported last-level cache, capped at RAM/8; on the reference VM that
// is 1 GiB per array (the LLC it reports is the host's 260 MB) and faulting
// it in costs ten seconds a run, while the measured bandwidth is flat from
// 128 MiB up. Both sizes are recorded in the result's env block.
const memBWMaxBytes = 128 << 20

// microMemBW copies a plain []uint64 — the machine's sustainable bandwidth,
// which the gather sweep is compared against.
func microMemBW(cfg *config, res *result) {
	env := &res.Env
	bytes := 4 * env.LLCBytes
	if bytes == 0 {
		bytes = memBWMaxBytes
	}
	limit := int64(memBWMaxBytes)
	if ram := env.RAMBytes / 8; ram > 0 && ram < limit {
		limit = ram
	}
	if cfg.smoke {
		limit = 16 << 20
	}
	if bytes > limit {
		bytes, env.MemBWCapped = limit, true
	}
	env.MemBWArrayBytes = bytes
	src := make([]uint64, bytes/8)
	dst := make([]uint64, bytes/8)
	for i := range src {
		src[i] = uint64(i)
	}
	copy(dst, src) // fault the destination in
	s := medianOf(microReps, func() float64 { return secondsOf(func() { copy(dst, src) }) })
	sink += dst[len(dst)/2]
	// A copy reads and writes every byte.
	res.set("membw.copy_gbps", "GB/s", 2*float64(bytes)/s/1e9)
	res.set("edgedata.gather_bw_frac", "ratio", res.value("edgedata.gather_gbps")/res.value("membw.copy_gbps"))
}

// microFrontier times the scheduled-set operations an iteration pays:
// Schedule per posted vertex, and Advance plus the Members rebuild at the
// barrier, at 100 % and at 1 % occupancy.
func microFrontier(res *result, n int) {
	f := frontier.NewFrontier(n)
	res.set("frontier.schedule_ns", "ns", medianOf(microReps, func() float64 {
		s := secondsOf(func() {
			for v := 0; v < n; v++ {
				f.Schedule(v)
			}
		})
		f.Advance()
		return s * 1e9 / float64(n)
	}))
	advance := func(stride int) float64 {
		return medianOf(microReps, func() float64 {
			for v := 0; v < n; v += stride {
				f.Schedule(v)
			}
			return secondsOf(func() {
				f.Advance()
				sink += uint64(len(f.Members()))
			}) * 1e6
		})
	}
	res.set("frontier.advance_dense_us", "us", advance(1))
	res.set("frontier.advance_sparse_us", "us", advance(100))

	st := frontier.NewStates(n)
	res.set("frontier.states.post_ns", "ns", medianOf(microReps, func() float64 {
		s := secondsOf(func() {
			for v := 0; v < n; v++ {
				st.Post(v)
			}
		})
		st.Reset()
		return s * 1e9 / float64(n)
	}))
}

// microSched times the barrier (a RunBlocks dispatch with an empty body), a
// dynamic chunk claim, and the work-stealing deque's owner and thief paths.
func microSched(cfg *config, res *result) {
	pool := sched.NewPool(cfg.workers)
	defer pool.Close()
	noop := func(worker, item int) {}
	items := make([]int, 2*cfg.workers)
	const barriers = 2000
	res.set("sched.pool.barrier_us", "us", medianOf(microReps, func() float64 {
		return secondsOf(func() {
			for i := 0; i < barriers; i++ {
				pool.RunBlocks(items, noop)
			}
		}) * 1e6 / barriers
	}))
	const claims = 1 << 16
	many := make([]int, claims)
	res.set("sched.pool.chunk_claim_ns", "ns", medianOf(microReps, func() float64 {
		return secondsOf(func() { pool.RunChunks(many, 1, noop) }) * 1e9 / claims
	}))

	const tasks = 1 << 18
	d := sched.NewDeque(tasks)
	res.set("sched.deque.push_pop_ns", "ns", medianOf(microReps, func() float64 {
		return secondsOf(func() {
			for i := 0; i < tasks; i++ {
				d.Push(i)
				v, _ := d.Pop()
				sink += uint64(v)
			}
		}) * 1e9 / tasks
	}))
	res.set("sched.deque.steal_ns", "ns", medianOf(microReps, func() float64 {
		for i := 0; i < tasks; i++ {
			d.Push(i)
		}
		return secondsOf(func() {
			for i := 0; i < tasks; i++ {
				v, _ := d.Steal()
				sink += uint64(v)
			}
		}) * 1e9 / tasks
	}))
}

// microObs times the telemetry hot paths the *.obs_overhead_frac rows pay for.
func microObs(cfg *config, res *result, m int) {
	const ops = 1 << 18
	o := ndgraph.NewObserver(ndgraph.ObserverOptions{})
	res.set("obs.emit_ns", "ns", medianOf(microReps, func() float64 {
		return secondsOf(func() {
			for i := 0; i < ops; i++ {
				o.Emit(obs.Event{Engine: obs.EngineCore, Iter: int64(i), Updates: 1})
			}
		}) * 1e9 / ops
	}))
	clock := ndgraph.NewDelayClock(cfg.workers, m)
	res.set("obs.delay_stamp_observe_ns", "ns", medianOf(microReps, func() float64 {
		return secondsOf(func() {
			for i := 0; i < ops; i++ {
				slot := uint32(i % m)
				clock.Stamp(slot)
				clock.ObserveRead(0, slot)
			}
		}) * 1e9 / ops
	}))
	est := ndgraph.NewResidualEstimator(cfg.workers, nil)
	res.set("obs.residual_observe_ns", "ns", medianOf(microReps, func() float64 {
		return secondsOf(func() {
			for i := 0; i < ops; i++ {
				est.Observe(0, uint64(i), uint64(i+1))
			}
		}) * 1e9 / ops
	}))
}

// microEdgeList parses the text form of the graph's first edges.
func microEdgeList(res *result, edges []ndgraph.Edge, n int) error {
	const maxEdges = 400_000
	if len(edges) > maxEdges {
		edges = edges[:maxEdges]
	}
	sub, err := ndgraph.BuildGraph(edges, ndgraph.GraphOptions{NumVertices: n})
	if err != nil {
		return err
	}
	var text bytes.Buffer
	if err := loader.WriteEdgeList(&text, sub); err != nil {
		return err
	}
	runtime.GC()
	var parseErr error
	s := secondsOf(func() {
		_, parseErr = loader.ReadEdgeList(bytes.NewReader(text.Bytes()), ndgraph.GraphOptions{})
	})
	res.set("loader.edgelist_parse_mb_per_s", "MB/s", float64(text.Len())/1e6/s)
	return parseErr
}
