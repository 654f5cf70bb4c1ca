// Package ndgraph is a shared-memory vertex-centric graph processing
// framework built to study — and let users exploit — the nondeterministic
// execution of graph algorithms, reproducing Shao, Hou, Ai, Zhang & Jin,
// "Is Your Graph Algorithm Eligible for Nondeterministic Execution?"
// (ICPP 2015).
//
// The framework executes pull-mode gather–compute–scatter update functions
// under five schedulers (deterministic Gauss–Seidel, nondeterministic
// block-parallel, synchronous/BSP, DIG, and barrier-free NoSync, which
// admits only algorithms the paper's theorems cover), guards edge data with
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
	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
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
	// hash, and AdmitKernel() checks a hybrid kernel's name and its
	// FirstOfferWins flag.
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
	// ("kernel", "bfs"). Pass its Verdict() as Options.Verdict or the
	// certificate to HybridEngine.Certify for probe-free admission.
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
	// DIG is Galois-style deterministic interference-graph execution.
	DIG = sched.DIG
	// NoSync is barrier-free work-stealing execution: per-worker deques
	// with randomized stealing, coalescing per-vertex scheduled states and
	// distributed double-sweep termination detection. Options.Verdict must
	// name Theorem 1 or 2 (Run fills it with NoSyncVerdict when unset).
	NoSync = sched.NoSync
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

// Robustness: fault injection, divergence watchdog, checkpointing.
type (
	// FaultPlan configures the seeded fault injector.
	FaultPlan = fault.Plan
	// FaultInjector corrupts edge operations per a FaultPlan; plug it into
	// Options.Inject. The core engine is its one host, under every
	// scheduler (NoSync refuses only a plan with CrashIter > 0, having no
	// iteration boundary to crash at); the other executors take none.
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
// one Observer to any number of engines (Options.Observer for core under
// every scheduler, NoSync included, NetDistOptions.Observer, and
// HybridEngine's Observe method); events flow into per-engine counters, a ring buffer,
// and any attached sinks; serve live metrics with ServeTelemetry
// (-telemetry-addr on the CLIs).
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
	// allocation-free). No engine feeds it; it remains only because the
	// benchmark's obs.residual_observe_ns row times it (ROADMAP item 1).
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
	// NewResidualEstimator builds a striped residual accumulator (kept
	// for the benchmark's obs.residual_observe_ns row, like
	// ResidualEstimator).
	NewResidualEstimator = obs.NewResidualEstimator
)

// Execution-path record/replay and run-divergence diagnosis. A recorder
// attached to an engine (Options.Trace or HybridEngine's Trace method)
// captures the execution path; with EnableCommits it also logs every racy
// edge commit, which lets the core engine replay the run to a
// byte-identical fixed point (Lemmas 1–2 made executable). NoSync records
// the path but refuses a commit log. Traces serialize to the NDTR binary format and diff into a
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

// Barrier-free admission.
var (
	// NoSyncVerdict derives the admission verdict for an algorithm: the
	// embedded certificate's for a built-in algorithm type, an
	// instrumented probe for any other type.
	NoSyncVerdict = algorithms.NoSyncVerdict
)

// Direction-optimizing hybrid execution: per-iteration push/pull choice
// over paired kernels (Beamer-style frontier-density thresholds).
type (
	// HybridEngine chooses push or pull at every iteration barrier. Only
	// FirstOfferWins kernels (BFS) ever pull, with Beamer's bottom-up
	// sweep; every other kernel pushes every iteration.
	HybridEngine = hybrid.Engine
	// HybridDirection is the per-iteration traversal direction.
	HybridDirection = hybrid.Direction
	// HybridStats is the barrier snapshot a HybridPolicy decides from.
	HybridStats = hybrid.Stats
	// HybridPolicy chooses the direction for one iteration of a
	// FirstOfferWins kernel; nil selects Beamer's thresholds. Other
	// kernels never consult it.
	HybridPolicy = hybrid.Policy
	// HybridResult summarizes a hybrid run, including the direction
	// sequence (SwitchTrace).
	HybridResult = hybrid.Result
	// Kernel is a paired push/pull monotone vertex program. Every
	// executor hands Message the canonical index of the edge it relaxes.
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
	// WCCKernel, BFSKernel, and SSSPKernel are the paired push/pull
	// kernels of the registry in internal/algorithms.
	WCCKernel  = algorithms.WCCKernel
	BFSKernel  = algorithms.BFSKernel
	SSSPKernel = algorithms.SSSPKernel
)
