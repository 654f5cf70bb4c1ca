// Package ndgraph is a shared-memory vertex-centric graph processing
// framework built to study — and let users exploit — the nondeterministic
// execution of graph algorithms, reproducing Shao, Hou, Ai, Zhang & Jin,
// "Is Your Graph Algorithm Eligible for Nondeterministic Execution?"
// (ICPP 2015).
//
// The framework executes pull-mode gather–compute–scatter update functions
// under four schedulers (deterministic Gauss–Seidel, nondeterministic
// block-parallel, synchronous/BSP, and chromatic), guards edge data with
// the paper's three per-operation atomicity methods (per-edge locks,
// architecture word-alignment, language atomics), ships the paper's four
// evaluated algorithms (PageRank, WCC, SSSP, BFS) plus SpMV and a
// deliberately ineligible greedy coloring, and answers the title question
// mechanically: Probe classifies an algorithm's potential edge conflicts
// and Advise applies the paper's Theorem 1/2 sufficient conditions.
//
// Quick start:
//
//	g, _ := ndgraph.BuildGraph(edges, ndgraph.GraphOptions{})
//	wcc := ndgraph.NewWCC()
//	eng, res, _ := ndgraph.Run(wcc, g, ndgraph.Options{
//		Scheduler: ndgraph.Nondeterministic,
//		Threads:   8,
//		Mode:      ndgraph.ModeAtomic,
//	})
//	labels := wcc.Components(eng)
//	_ = res // iterations, wall time, conflict counts
//
// This package is a facade: it re-exports the library's public surface
// from the internal implementation packages so downstream users need a
// single import.
package ndgraph

import (
	"context"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/async"
	"ndgraph/internal/autonomous"
	"ndgraph/internal/core"
	"ndgraph/internal/dist"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/fault"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/loader"
	"ndgraph/internal/metrics"
	"ndgraph/internal/netdist"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/shard"
	"ndgraph/internal/trace"
)

// Graph types.
type (
	// Graph is the immutable dual-CSR directed graph.
	Graph = graph.Graph
	// Edge is one directed edge in builder input.
	Edge = graph.Edge
	// GraphOptions controls graph construction.
	GraphOptions = graph.Options
	// GraphStats summarizes a graph.
	GraphStats = graph.Stats
)

// Engine types.
type (
	// Engine is the barrier-based coordinated-scheduling engine.
	Engine = core.Engine
	// Options configures an Engine.
	Options = core.Options
	// Result reports a run's statistics.
	Result = core.Result
	// VertexView is the update function's window onto its vertex.
	VertexView = core.VertexView
	// UpdateFunc is a vertex update function f(v).
	UpdateFunc = core.UpdateFunc
)

// Algorithm types.
type (
	// Algorithm is the uniform algorithm interface.
	Algorithm = algorithms.Algorithm
	// PageRank is the fixed-point ranking algorithm (Theorem 1 class).
	PageRank = algorithms.PageRank
	// WCC is weakly connected components (Theorem 2 class).
	WCC = algorithms.WCC
	// SSSP is single-source shortest paths (also covers BFS).
	SSSP = algorithms.SSSP
	// SpMV is the Jacobi-style sparse fixed-point solve.
	SpMV = algorithms.SpMV
	// Coloring is the deliberately ineligible greedy coloring.
	Coloring = algorithms.Coloring
)

// Eligibility types.
type (
	// Properties declares an algorithm's theorem premises.
	Properties = eligibility.Properties
	// ConflictProfile counts read-write and write-write conflict edges.
	ConflictProfile = eligibility.ConflictProfile
	// Verdict is the advisor's answer to the title question.
	Verdict = eligibility.Verdict
	// StaticProfile records which edge sides an update function can
	// touch, as derived from its source (cmd/ndlint's conflictclass pass).
	StaticProfile = eligibility.StaticProfile
	// Certificate is a machine-verified admission certificate emitted by
	// `ndlint -cert` from the analysis passes. It is
	// tamper-evident: Verdict() re-derives the recorded gates and errors
	// on disagreement, Stale() detects source drift via the embedded
	// hash, and AdmitKernel() checks a hybrid kernel's name and flags.
	Certificate = eligibility.Certificate
	// KernelCertificate is the kernel-specific law record inside a
	// "kernel" Certificate (Better strict-order laws, flag obligations,
	// direction consistency).
	KernelCertificate = eligibility.KernelCert
)

// Admission certificates for the built-in algorithms and kernels,
// verified by `ndlint -cert` and embedded at build time
// (internal/algorithms/certs.json). The tests re-derive them from source
// on every run, so a certificate that decodes is current.
var (
	// EligibilityCertificates returns every embedded certificate.
	EligibilityCertificates = algorithms.EligibilityCertificates
	// CertificateFor returns one embedded certificate by kind ("update"
	// or "kernel") and algorithm name, e.g. ("update", "wcc") or
	// ("kernel", "bfs"). Pass it to NoSyncOptions.Certificate or
	// HybridEngine.Certify for probe-free admission.
	CertificateFor = algorithms.CertificateFor
	// EncodeCertificates and DecodeCertificates are the JSON wire format
	// for certificate registries (what `ndlint -cert` emits and
	// `-certcheck` reads).
	EncodeCertificates = eligibility.EncodeCertificates
	DecodeCertificates = eligibility.DecodeCertificates
)

// Scheduler kinds (see internal/sched).
const (
	// Deterministic is sequential ascending-label Gauss–Seidel execution.
	Deterministic = sched.Deterministic
	// Nondeterministic is the paper's racy block-parallel execution.
	Nondeterministic = sched.Nondeterministic
	// Synchronous is BSP execution.
	Synchronous = sched.Synchronous
	// Chromatic is color-class parallel deterministic execution.
	Chromatic = sched.Chromatic
	// DIG is Galois-style deterministic interference-graph execution.
	DIG = sched.DIG
)

// Intra-iteration dispatch policies for Options.Dispatch.
const (
	// Static is the paper's Fig. 1 contiguous-label-block assignment.
	Static = sched.Static
	// Dynamic is chunked work stealing from a shared cursor.
	Dynamic = sched.Dynamic
)

// EdgeMode selects the edge-data atomicity method.
type EdgeMode = edgedata.Mode

// Edge-data atomicity modes (the paper's Section III methods).
const (
	// ModeSequential is unsynchronized single-thread storage.
	ModeSequential = edgedata.ModeSequential
	// ModeLocked is per-edge explicit locking.
	ModeLocked = edgedata.ModeLocked
	// ModeAligned is architecture word-alignment (benign races).
	ModeAligned = edgedata.ModeAligned
	// ModeAtomic is language atomic primitives.
	ModeAtomic = edgedata.ModeAtomic
)

// Graph construction and I/O.
var (
	// BuildGraph constructs a Graph from an edge list.
	BuildGraph = graph.Build
	// LoadGraph reads a graph file (.bin, .mtx, or edge list).
	LoadGraph = loader.LoadFile
	// SaveGraph writes a graph file (.bin or edge list).
	SaveGraph = loader.SaveFile
)

// RMATParams configures the R-MAT generator.
type RMATParams = gen.RMATParams

// DefaultRMAT is the Graph500-style R-MAT parameterization.
var DefaultRMAT = gen.DefaultRMAT

// Dataset identifies a paper Table I graph analog.
type Dataset = gen.Dataset

// The paper's four evaluation graphs (synthetic analogs).
const (
	// WebBerkStan models web-BerkStan.
	WebBerkStan = gen.WebBerkStan
	// WebGoogle models web-Google.
	WebGoogle = gen.WebGoogle
	// SocLiveJournal models soc-LiveJournal1.
	SocLiveJournal = gen.SocLiveJournal
	// Cage15 models cage15.
	Cage15 = gen.Cage15
)

// Generators.
var (
	// GenRMAT generates an R-MAT power-law graph.
	GenRMAT = gen.RMAT
	// GenErdosRenyi generates a uniform random graph.
	GenErdosRenyi = gen.ErdosRenyi
	// GenPreferentialAttachment generates a social-like graph.
	GenPreferentialAttachment = gen.PreferentialAttachment
	// GenGrid generates a 2D lattice.
	GenGrid = gen.Grid
	// Synthesize generates an analog of one of the paper's datasets.
	Synthesize = gen.Synthesize
)

// Engine and algorithms.
var (
	// NewEngine builds a barrier-based engine.
	NewEngine = core.NewEngine
	// Run executes an algorithm on a graph to convergence.
	Run = algorithms.Run
	// Probe classifies an algorithm's potential conflicts and returns the
	// eligibility verdict — the paper's title question, answered.
	Probe = algorithms.Probe
	// VerifyMonotonicity checks Theorem 2's premise at runtime by
	// observing every edge write of a deterministic run.
	VerifyMonotonicity = algorithms.VerifyMonotonicity
	// NonIncreasing / NonDecreasing are the monotonicity directions.
	NonIncreasing = algorithms.NonIncreasing
	NonDecreasing = algorithms.NonDecreasing
	// Advise applies the Theorem 1/2 sufficient conditions directly.
	Advise = eligibility.Advise
	// AdviseStatic applies them to a statically derived access profile —
	// a worst case over all graphs, so ELIGIBLE holds for every input.
	AdviseStatic = eligibility.AdviseStatic

	// NewPageRank builds PageRank with local threshold ε.
	NewPageRank = algorithms.NewPageRank
	// NewWCC builds weakly connected components.
	NewWCC = algorithms.NewWCC
	// NewSSSP builds single-source shortest paths with random weights.
	NewSSSP = algorithms.NewSSSP
	// NewBFS builds breadth-first search (unit-weight SSSP).
	NewBFS = algorithms.NewBFS
	// NewSpMV builds the contraction fixed-point solve.
	NewSpMV = algorithms.NewSpMV
	// NewKCore builds k-core decomposition.
	NewKCore = algorithms.NewKCore
	// NewLabelProp builds majority label propagation (not eligible).
	NewLabelProp = algorithms.NewLabelProp
	// NewColoring builds the ineligible greedy coloring demo.
	NewColoring = algorithms.NewColoring
)

// Result-variance metrics (Section V-C).
var (
	// RankOrder sorts vertices by descending score.
	RankOrder = metrics.RankOrder
	// DifferenceDegree is the paper's rank-divergence metric.
	DifferenceDegree = metrics.DifferenceDegree
)

// Out-of-core (GraphChi-style Parallel Sliding Windows) execution.
type (
	// ShardStorage is on-disk sharded graph storage.
	ShardStorage = shard.Storage
	// ShardEngine executes updates over sharded storage.
	ShardEngine = shard.Engine
	// ShardOptions configures a PSW run.
	ShardOptions = shard.Options
)

var (
	// BuildShards shards a graph onto disk.
	BuildShards = shard.Build
	// NewShardEngine binds a PSW executor to sharded storage.
	NewShardEngine = shard.NewEngine
)

// Robustness: fault injection, divergence watchdog, checkpointing.
type (
	// FaultPlan configures the seeded fault injector.
	FaultPlan = fault.Plan
	// FaultInjector corrupts edge operations per a FaultPlan; plug it into
	// Options.Inject (core), AsyncOptions.Inject, or ShardOptions.Inject.
	FaultInjector = fault.Injector
	// FaultStats tallies injected faults.
	FaultStats = fault.Stats
)

var (
	// NewFaultInjector builds a fault injector from a plan.
	NewFaultInjector = fault.NewInjector
	// ErrInjectedCrash is returned by a run killed by an injected crash.
	ErrInjectedCrash = fault.ErrCrash
	// ErrStalled is returned when the divergence watchdog
	// (Options.StallWindow) aborts a non-converging run.
	ErrStalled = core.ErrStalled
)

// DefaultMaxIters is the iteration cap engines apply when Options.MaxIters
// is unset — a backstop against algorithms that never converge.
const DefaultMaxIters = core.DefaultMaxIters

// Distributed-simulation execution (message passing over a lossy,
// reordering, duplicating network).
type (
	// DistPropagation declares a monotone message-passing computation.
	DistPropagation = dist.Propagation
	// DistOptions configures the simulated cluster.
	DistOptions = dist.Options
	// DistResult reports a distributed run.
	DistResult = dist.Result
)

var (
	// DistRun executes a propagation on the simulated cluster.
	DistRun = dist.Run
	// DistWCC runs distributed weakly connected components.
	DistWCC = dist.WCC
	// DistSSSP runs distributed single-source shortest paths.
	DistSSSP = dist.SSSP
)

// Real-transport distributed execution: worker processes on TCP with a
// supervising coordinator (heartbeats, checkpoint restarts, Theorem-2
// boundary repair) and frame-level fault injection (see DESIGN.md §12).
type (
	// NetDistOptions configures a real-transport distributed run.
	NetDistOptions = netdist.Options
	// NetDistResult reports a distributed run; NetDistRun returns the
	// partial result (Converged false, no Values) next to an error.
	NetDistResult = netdist.Result
	// NetDistGraph describes the input graph as a generative spec.
	NetDistGraph = netdist.GraphSpec
	// NetDistAlgo names the distributed algorithm and its parameters.
	NetDistAlgo = netdist.AlgoSpec
	// NetDistProxy injects drops/dups/delays/reorders/partitions on live
	// worker↔worker links.
	NetDistProxy = netdist.Proxy
	// NetDistProxyPlan configures per-frame fault probabilities.
	NetDistProxyPlan = netdist.ProxyPlan
	// NetDistLauncher abstracts worker process lifecycle (start/stop/kill).
	NetDistLauncher = netdist.Launcher
)

var (
	// NetDistRun executes one supervised distributed job end to end.
	NetDistRun = netdist.Run
	// NewNetDistProxy builds an empty fault proxy.
	NewNetDistProxy = netdist.NewProxy
	// NewLocalLauncher hosts workers as goroutines on loopback TCP.
	NewLocalLauncher = netdist.NewLocalLauncher
	// NewExecLauncher spawns real worker processes from an ndworker binary.
	NewExecLauncher = netdist.NewExecLauncher
	// RunNetDistWorker serves one worker on a listener (cmd/ndworker's body).
	RunNetDistWorker = netdist.RunWorker
)

// Observability: the zero-overhead-when-disabled telemetry layer. Attach
// one Observer to any number of engines (Options.Observer for core,
// AsyncOptions.Observer, ShardOptions.Observer, DistOptions.Observer, and
// the Observe methods of HybridEngine / AutonomousEngine); events flow into
// per-engine counters, a ring buffer, and any attached sinks; serve live
// metrics with ServeTelemetry (-telemetry-addr on the CLIs).
type (
	// Observer collects telemetry events from engines. nil disables
	// collection at the cost of one pointer test per iteration.
	Observer = obs.Observer
	// ObserverOptions configures an Observer.
	ObserverOptions = obs.Options
	// TelemetryEvent is one per-iteration (or per-sample-window) sample.
	TelemetryEvent = obs.Event
	// TelemetrySink consumes emitted events (JSONL, expvar, custom).
	TelemetrySink = obs.Sink
	// TelemetryServer is a running /metrics + /debug/pprof endpoint.
	TelemetryServer = obs.Server
	// TelemetryEngineKind labels which executor emitted an event.
	TelemetryEngineKind = obs.EngineKind
	// TelemetryEngineStats is one engine's accumulated counter snapshot,
	// as returned by Observer.Stats and rendered by /metrics.
	TelemetryEngineStats = obs.EngineStats
	// TelemetryWindow is one closed time window of aggregated samples —
	// the unit of the /statusz residual curve (Observer.Windows).
	TelemetryWindow = obs.WindowStat
	// DelayClock measures staleness in barrier-free runs: per-worker epoch
	// counters stamped when a value is published and read back when it is
	// consumed, feeding a lock-free histogram of publish-to-read delays.
	// Engines attach one automatically when an Observer is set.
	DelayClock = obs.DelayClock
	// DelayHist is a merged staleness histogram snapshot (DelayClock.Hist).
	DelayHist = obs.DelayHist
	// DelaySnapshot is one engine's rendered staleness quantiles, as served
	// by /statusz and returned by Observer.DelaySnapshots.
	DelaySnapshot = obs.DelaySnapshot
	// ResidualEstimator accumulates per-commit value movement (striped,
	// allocation-free) — the input of the telemetry Residual gauge.
	ResidualEstimator = obs.ResidualEstimator
	// ResidualTotals is a ResidualEstimator snapshot.
	ResidualTotals = obs.ResidualTotals
)

var (
	// NewObserver builds an observability collector.
	NewObserver = obs.New
	// NewJSONLSink streams events as JSON lines to a writer.
	NewJSONLSink = obs.NewJSONLSink
	// ServeTelemetry serves /metrics, /events, /debug/vars, /statusz, and
	// /debug/pprof for an observer on the given address.
	ServeTelemetry = obs.Serve
	// NewDelayClock builds a standalone staleness clock (engines create
	// their own when observing; this is for custom executors).
	NewDelayClock = obs.NewDelayClock
	// NewResidualEstimator builds a striped residual accumulator.
	NewResidualEstimator = obs.NewResidualEstimator
)

// Execution-path record/replay and run-divergence diagnosis. A recorder
// attached to an engine (Options.Trace, AsyncOptions.Trace,
// ShardOptions.Trace, DistOptions.Trace, or the Trace methods of
// HybridEngine / AutonomousEngine) captures the execution path; with
// EnableCommits it also logs every racy edge commit, which lets the core
// engine replay the run to a byte-identical fixed point (Lemmas 1–2 made
// executable). Traces serialize to the NDTR binary format and diff into a
// divergence report with a propagation-distance histogram.
type (
	// TraceRecorder records execution paths (Options.Trace).
	TraceRecorder = trace.Recorder
	// Trace is an immutable recorded run (events, commits, digest).
	Trace = trace.Trace
	// TraceMeta carries a trace's provenance (graph dims + KV pairs).
	TraceMeta = trace.Meta
	// TraceEvent is one recorded update.
	TraceEvent = trace.Event
	// TraceCommit is one recorded racy edge commit.
	TraceCommit = trace.Commit
	// TraceDiffReport is the canonical divergence report of two traces.
	TraceDiffReport = trace.DiffReport
	// TraceDHist is the propagation-distance histogram, split by the
	// paper's ≺ / ≻ / ∥ relations.
	TraceDHist = trace.DHist
	// ReplayReport summarizes a forced re-execution of a recorded run.
	ReplayReport = core.ReplayReport
)

var (
	// NewTraceRecorder returns a bounded execution-path recorder.
	NewTraceRecorder = trace.NewRecorder
	// WriteTrace serializes a trace in the NDTR binary format.
	WriteTrace = trace.WriteBinary
	// ReadTrace deserializes an NDTR binary trace.
	ReadTrace = trace.ReadBinary
	// DiffTraces computes the canonical divergence report of two traces.
	DiffTraces = trace.Diff
	// ErrCorruptTrace is returned by ReadTrace on framing/CRC damage.
	ErrCorruptTrace = trace.ErrCorruptTrace
	// ErrReplayDiverged is returned by Engine.ReplayTrace when the forced
	// replay does not reach the recorded fixed point.
	ErrReplayDiverged = core.ErrReplayDiverged
)

// Autonomous (priority-driven) scheduling — the paper's other scheduling
// category (Section I).
type (
	// AutonomousEngine executes priority-ordered updates.
	AutonomousEngine = autonomous.Engine
	// AutonomousScheduler is the priority queue updates post into.
	AutonomousScheduler = autonomous.Scheduler
)

var (
	// NewAutonomousEngine builds a priority-driven executor.
	NewAutonomousEngine = autonomous.NewEngine
	// AutonomousSSSP runs distance-ordered SSSP (Dijkstra as a schedule).
	AutonomousSSSP = autonomous.SSSP
	// DeltaPageRank runs residual-ordered PageRank.
	DeltaPageRank = autonomous.DeltaPageRank
)

// Extensions: barrier-free execution.
type (
	// AsyncExecutor is the pure asynchronous (barrier-free) executor.
	AsyncExecutor = async.Executor
	// AsyncOptions configures an AsyncExecutor.
	AsyncOptions = async.Options
	// NoSyncExecutor is the work-stealing barrier-free executor: per-worker
	// deques with randomized stealing, coalescing per-vertex scheduled
	// states, and distributed double-sweep termination detection. Admission
	// requires a Theorem-1/2 eligibility verdict (NoSyncOptions.Verdict).
	NoSyncExecutor = async.NoSync
	// NoSyncOptions configures a NoSyncExecutor.
	NoSyncOptions = async.NoSyncOptions
	// NoSyncResult summarizes a no-sync run (updates, steals, idle
	// transitions, convergence).
	NoSyncResult = async.NoSyncResult
)

var (
	// NewAsyncExecutor builds a barrier-free executor.
	NewAsyncExecutor = async.NewExecutor
	// NewNoSyncExecutor builds the work-stealing no-sync executor; it
	// refuses algorithms whose eligibility verdict is not covered by the
	// paper's Theorem 1 or 2.
	NewNoSyncExecutor = async.NewNoSync
	// NoSyncVerdict derives the admission verdict for an algorithm: the
	// embedded certificate's for a built-in algorithm type, an
	// instrumented probe for any other type.
	NoSyncVerdict = algorithms.NoSyncVerdict
)

// Direction-optimizing hybrid execution: per-iteration push/pull choice
// over paired kernels (Beamer-style frontier-density thresholds).
type (
	// HybridEngine chooses push or pull at every iteration barrier.
	HybridEngine = hybrid.Engine
	// HybridDirection is the per-iteration traversal direction.
	HybridDirection = hybrid.Direction
	// HybridStats is the barrier snapshot a HybridPolicy decides from.
	HybridStats = hybrid.Stats
	// HybridPolicy chooses the direction for one iteration.
	HybridPolicy = hybrid.Policy
	// HybridResult summarizes a hybrid run, including the direction
	// sequence (SwitchTrace).
	HybridResult = hybrid.Result
	// Kernel is a paired push/pull monotone vertex program.
	Kernel = algorithms.Kernel
)

// Hybrid traversal directions.
const (
	// HybridPush relaxes out-edges of the scheduled set.
	HybridPush = hybrid.Push
	// HybridPull gathers from scheduled in-neighbors.
	HybridPull = hybrid.Pull
)

var (
	// NewHybridEngine builds a direction-optimizing engine.
	NewHybridEngine = hybrid.NewEngine
	// HybridBeamerPolicy builds the classic threshold policy with
	// hysteresis; alpha or beta <= 0 select the Beamer defaults.
	HybridBeamerPolicy = hybrid.BeamerPolicy
	// WCCKernel, BFSKernel, and SSSPKernel are the paired push/pull
	// kernels of the registry in internal/algorithms.
	WCCKernel  = algorithms.WCCKernel
	BFSKernel  = algorithms.BFSKernel
	SSSPKernel = algorithms.SSSPKernel
)

// Push mode (Ligra-style: the update of v relaxes its out-edges straight
// into the destinations' vertex words, combining with compare-and-swap) is
// the hybrid engine under a policy that never pulls. PushBFS, PushSSSP and
// PushWCC are that, packaged as one call per algorithm.

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
	if k.Undirected {
		g = g.Undirected()
	}
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

// PushSSSP runs push-mode single-source shortest paths over per-edge
// weights in canonical edge index order.
func PushSSSP(g *Graph, source uint32, weights []float64, _ pushMode, threads int) ([]float64, PushResult, error) {
	words, res, err := pushRun(g, algorithms.SSSPKernel(source, weights), threads)
	return wordsToFloats(words), res, err
}

func wordsToFloats(words []uint64) []float64 {
	out := make([]float64, len(words))
	for i, w := range words {
		out[i] = edgedata.ToFloat64(w)
	}
	return out
}

// PushWCC runs push-mode weakly-connected components; pushes only flow
// along out-edges, so the graph is symmetrized first.
func PushWCC(g *Graph, _ pushMode, threads int) ([]uint32, PushResult, error) {
	words, res, err := pushRun(g, algorithms.WCCKernel(), threads)
	labels := make([]uint32, len(words))
	for v, w := range words {
		labels[v] = uint32(w)
	}
	return labels, res, err
}
