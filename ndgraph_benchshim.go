package ndgraph

import (
	"context"
	"fmt"
	"math"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/netdist"
	"ndgraph/internal/sched"
)

// This file holds every facade name that exists only because the frozen
// benchmark (bench/tier_{asyncchan,autonomous,dist,nosync,push,shard}.go)
// compiles against it. The engines those names once exported are retired;
// each name here is a delegation to a surviving engine. ROADMAP item 1(a)
// deletes the contender rows and moves the nosync row onto Run, and with
// them this whole file. Do not use these names anywhere else.

// ShardStorage, ShardOptions, ShardEngine, BuildShards and NewShardEngine
// are kept only for the benchmark's `shard` contender row
// (bench/tier_shard.go). The out-of-core PSW engine they named is retired:
// the paper's graphs fit in memory, and the core engine's Nondeterministic
// scheduler runs the same barriered block-parallel schedule. BuildShards
// records the graph and writes nothing to disk; NewShardEngine builds a
// nondeterministic core Engine over it. The row's `shard.build_s` (≈ 0)
// and `shard.slowdown_vs_nondet` (the core engine timed against itself,
// ≈ 1) therefore mean nothing until item 1(a) deletes them.
type ShardStorage struct {
	// Vertices is the vertex array of the engine NewShardEngine bound;
	// nil before that.
	Vertices []uint64

	g   *Graph
	eng *core.Engine
}

// ShardOptions holds the three settings the bench's shard row passes on
// to the core engine.
type ShardOptions struct {
	Threads  int
	Mode     EdgeMode
	Observer *Observer
}

// ShardEngine is the core Engine.
type ShardEngine = core.Engine

// BuildShards records g for NewShardEngine; dir and numShards are ignored.
func BuildShards(g *Graph, _ string, _ int) (*ShardStorage, error) {
	return &ShardStorage{g: g}, nil
}

// NewShardEngine builds a Nondeterministic core Engine over st's graph and
// points st.Vertices at its vertex array.
func NewShardEngine(st *ShardStorage, o ShardOptions) (*ShardEngine, error) {
	e, err := core.NewEngine(st.g, core.Options{
		Scheduler: sched.Nondeterministic, Threads: o.Threads, Mode: o.Mode, Observer: o.Observer,
	})
	if err != nil {
		return nil, err
	}
	st.Vertices, st.eng = e.Vertices, e
	return e, nil
}

// FillValues sets every edge word of the bound engine to w.
func (st *ShardStorage) FillValues(w uint64) error {
	if st.eng == nil {
		return fmt.Errorf("ndgraph: FillValues before NewShardEngine")
	}
	st.eng.Edges.Fill(w)
	return nil
}

// NoSyncExecutor, NoSyncOptions, NoSyncResult and NewNoSyncExecutor are
// kept only for the benchmark's `nosync` row (bench/tier_nosync.go), which
// sets an algorithm up on a seed Engine and copies that state in with
// LoadFrom before every solve. The barrier-free executor they named is the
// core engine's NoSync scheduler: use Run with Options{Scheduler: NoSync}.
type NoSyncExecutor struct{ *core.Engine }

// NoSyncOptions holds the settings the bench's nosync and async-chan rows
// pass on; Certificate.Verdict() becomes Options.Verdict.
type NoSyncOptions struct {
	Threads     int
	Mode        EdgeMode
	Certificate *Certificate
	Observer    *Observer
}

// NoSyncResult is the core engine's Result, which carries Steals and
// IdleTransitions.
type NoSyncResult = core.Result

// NewNoSyncExecutor builds a NoSync core Engine admitted by o.Certificate.
func NewNoSyncExecutor(g *Graph, o NoSyncOptions) (*NoSyncExecutor, error) {
	if o.Certificate == nil {
		return nil, fmt.Errorf("ndgraph: NewNoSyncExecutor needs a certificate")
	}
	v, err := o.Certificate.Verdict()
	if err != nil {
		return nil, fmt.Errorf("ndgraph: %w", err)
	}
	return newNoSyncExecutor(g, o, v)
}

func newNoSyncExecutor(g *Graph, o NoSyncOptions, v *Verdict) (*NoSyncExecutor, error) {
	e, err := core.NewEngine(g, core.Options{
		Scheduler: sched.NoSync, Threads: o.Threads, Mode: o.Mode, Observer: o.Observer, Verdict: v,
	})
	if err != nil {
		return nil, err
	}
	return &NoSyncExecutor{e}, nil
}

// LoadFrom copies the initial state an algorithm's Setup left on seed —
// vertex words, edge words and the scheduled set — into x. seed must hold
// the same graph and must not have run yet.
func (x *NoSyncExecutor) LoadFrom(seed *Engine) error {
	if seed.Graph() != x.Graph() {
		return fmt.Errorf("ndgraph: LoadFrom engine holds a different graph")
	}
	copy(x.Vertices, seed.Vertices)
	for i, w := range seed.Edges.Snapshot() {
		x.Edges.Store(uint32(i), w)
	}
	x.Frontier().LoadCurrent(seed.Frontier().Members())
	x.Frontier().Members() // build the member list here, outside the timed Run
	return nil
}

// AsyncExecutor, AsyncOptions and NewAsyncExecutor are kept only for the
// benchmark's `async-chan` contender row (bench/tier_asyncchan.go); they go
// with that row. The channel executor they named is retired: they are
// NoSyncExecutor under other names, and the row runs every workload's
// algorithm without presenting a verdict, as the channel executor did.
type (
	// AsyncExecutor is NoSyncExecutor.
	AsyncExecutor = NoSyncExecutor
	// AsyncOptions is NoSyncOptions; Certificate is ignored.
	AsyncOptions = NoSyncOptions
)

// asyncChanVerdict is the admission ticket NewAsyncExecutor presents on
// the async-chan row's behalf. It is built here, not derived from any
// analysis, and certifies nothing: the core engine runs NoSync only with a
// verdict, and this row never had one.
var asyncChanVerdict = Verdict{
	Eligible: true, Theorem: 2, Source: "bench shim",
	Reasons: []string{"unadmitted: built by ndgraph_benchshim.go for the bench's async-chan row, not by an eligibility analysis"},
}

// NewAsyncExecutor builds a NoSync core Engine admitted by
// asyncChanVerdict; see AsyncExecutor.
func NewAsyncExecutor(g *Graph, o AsyncOptions) (*AsyncExecutor, error) {
	v := asyncChanVerdict
	return newNoSyncExecutor(g, o, &v)
}

// AutonomousResult and AutonomousSSSP are kept only for the benchmark's
// `autonomous` contender row (bench/tier_autonomous.go); they go with that
// row (ROADMAP item 1(a)). The priority-driven engine they named is
// retired: distance-ordered SSSP is Dijkstra's algorithm, so AutonomousSSSP
// is algorithms.ReferenceSSSP.
type AutonomousResult struct {
	Updates   int64 // vertices settled: the source's reachable set
	Converged bool
	Duration  time.Duration
}

// AutonomousSSSP returns the shortest-path distances from source over the
// per-edge weights (+Inf where unreachable), computed by sequential
// Dijkstra.
func AutonomousSSSP(g *Graph, source uint32, weights []float64) ([]float64, AutonomousResult, error) {
	start := time.Now()
	dist := algorithms.ReferenceSSSP(g, source, weights)
	res := AutonomousResult{Converged: true, Duration: time.Since(start)}
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			res.Updates++
		}
	}
	return dist, res, nil
}

// DistOptions, DistResult and DistWCC are kept only for the benchmark's
// `dist` contender row (bench/tier_dist.go); they go with that row (ROADMAP
// item 1(a)). DistWCC runs WCC through NetDistRun on local workers over
// loopback TCP. Seed is accepted and ignored: netdist has no seeded
// delivery order.
type DistOptions struct {
	Workers  int
	Seed     uint64
	Observer *Observer
}

// DistResult reports a DistWCC run.
type DistResult struct {
	Converged bool
	Messages  int64
}

// DistWCC runs weakly connected components on netdist workers and returns
// the min-label of each vertex's component.
func DistWCC(g *Graph, o DistOptions) ([]uint32, DistResult, error) {
	edges := make([][2]uint32, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]uint32{e.Src, e.Dst})
	}
	res, err := netdist.Run(context.Background(), netdist.Options{
		Workers:  o.Workers,
		Graph:    netdist.GraphSpec{Kind: "edges", N: g.N(), Edges: edges},
		Algo:     netdist.AlgoSpec{Name: "wcc"},
		Observer: o.Observer,
	})
	out := DistResult{Converged: res.Converged, Messages: res.Messages}
	if err != nil {
		return nil, out, err
	}
	return res.Labels(), out, nil
}

// Push mode (Ligra-style: the update of v relaxes its out-edges straight
// into the destinations' vertex words, combining with compare-and-swap) is
// the hybrid engine under a policy that never pulls. PushBFS, PushResult
// and PushModeCAS are kept only for the benchmark's `push` contender row
// (bench/tier_push.go); they go with that row (ROADMAP item 1(a)). Run a
// kernel on NewHybridEngine with Policy set to always return HybridPush
// instead.

// PushResult summarizes a push-mode run.
type PushResult struct {
	Iterations int
	Pushes     int64 // edge relaxations attempted
	Wins       int64 // relaxations that improved the destination
	Converged  bool
	Duration   time.Duration
}

type pushMode int

// PushModeCAS names the one push combine discipline: a compare-and-swap
// retry loop, exact under any parallelism. (A racy read-test-write is not
// enough in push mode — the loser of a lost push believes it won and never
// re-pushes — see DESIGN.md §13.)
const PushModeCAS pushMode = 0

func pushRun(g *Graph, k Kernel, threads int) ([]uint64, PushResult, error) {
	e, err := hybrid.NewEngine(g, threads)
	if err != nil {
		return nil, PushResult{}, err
	}
	defer e.Close()
	e.Policy = func(hybrid.Stats) hybrid.Direction { return hybrid.Push }
	res, err := e.Run(context.Background(), k)
	return e.Vertices, PushResult{
		Iterations: res.Iterations, Pushes: res.Offers, Wins: res.Updates,
		Converged: res.Converged, Duration: res.Duration,
	}, err
}

// PushBFS runs push-mode breadth-first search from source and returns the
// hop distances (+Inf where unreachable).
func PushBFS(g *Graph, source uint32, _ pushMode, threads int) ([]float64, PushResult, error) {
	words, res, err := pushRun(g, algorithms.BFSKernel(source), threads)
	return wordsToFloats(words), res, err
}

func wordsToFloats(words []uint64) []float64 {
	out := make([]float64, len(words))
	for i, w := range words {
		out[i] = edgedata.ToFloat64(w)
	}
	return out
}
