// Top-level benchmark harness: one benchmark family per table and figure
// of the paper's evaluation (Section V), backed by internal/experiments.
// Run the full grid with:
//
//	go test -bench=. -benchmem
//
// and regenerate the paper-style tables with the ndbench CLI. Benchmarks
// use a larger scale divisor than the CLI so `go test -bench` stays quick;
// pass -scale to ndbench for bigger runs.
package ndgraph_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"ndgraph"
	"ndgraph/internal/algorithms"
	"ndgraph/internal/async"
	"ndgraph/internal/autonomous"
	"ndgraph/internal/core"
	"ndgraph/internal/dist"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/experiments"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/shard"
)

// benchConfig is the scaled-down experiment configuration for testing.B.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 200 // a few thousand vertices per graph
	cfg.Threads = []int{1, 2, 4, 8, 16}
	cfg.Runs = 3
	return cfg
}

// benchGraphs caches the synthesized Table I analogs across benchmarks.
var benchGraphs map[string]*graph.Graph

func getGraphs(b *testing.B) map[string]*graph.Graph {
	b.Helper()
	if benchGraphs == nil {
		gs, err := experiments.Graphs(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchGraphs = gs
	}
	return benchGraphs
}

// BenchmarkTable1GraphGeneration regenerates the Table I inventory: the
// cost of synthesizing each dataset analog.
func BenchmarkTable1GraphGeneration(b *testing.B) {
	cfg := benchConfig()
	for _, d := range gen.AllDatasets() {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gen.Synthesize(d, cfg.Scale, cfg.Seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3 regenerates the Fig. 3 grid: computing time of each
// algorithm on each graph under DE and NE×{lock, arch, atomic}×threads.
// Sub-benchmark names follow Fig3/<graph>/<algo>/<exec>/P<threads>.
func BenchmarkFig3(b *testing.B) {
	cfg := benchConfig()
	gs := getGraphs(b)
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		for _, algoName := range experiments.AlgoNames() {
			for _, kind := range experiments.ExecKinds(!raceEnabled) {
				threads := cfg.Threads
				if kind.Scheduler == sched.Deterministic {
					threads = []int{1}
				}
				for _, p := range threads {
					name := fmt.Sprintf("%s/%s/%s/P%d", d, algoName, kind.Label, p)
					b.Run(name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							a, err := experiments.NewAlgorithm(algoName, g, cfg)
							if err != nil {
								b.Fatal(err)
							}
							_, res, err := algorithms.Run(a, g, core.Options{
								Scheduler: kind.Scheduler, Threads: p, Mode: kind.Mode,
							})
							if err != nil {
								b.Fatal(err)
							}
							if !res.Converged {
								b.Fatal("did not converge")
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkTable2DifferenceDegree regenerates the Table II statistic: the
// cost of one full same-configuration variance measurement (5 PageRank
// runs + pairwise difference degrees) per configuration.
func BenchmarkTable2DifferenceDegree(b *testing.B) {
	cfg := benchConfig()
	gs := getGraphs(b)
	g := gs["web-google"]
	for _, conf := range []struct {
		name          string
		threads       int
		deterministic bool
	}{
		{"DE", 1, true}, {"4NE", 4, false}, {"8NE", 8, false}, {"16NE", 16, false},
	} {
		b.Run(conf.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ords, err := experiments.RankOrderings(g, 1e-2, conf.threads, conf.deterministic, cfg.Runs)
				if err != nil {
					b.Fatal(err)
				}
				if len(ords) != cfg.Runs {
					b.Fatal("missing runs")
				}
			}
		})
	}
}

// BenchmarkTable3CrossConfig regenerates the Table III statistic: variance
// between one DE run group and one 16NE run group.
func BenchmarkTable3CrossConfig(b *testing.B) {
	cfg := benchConfig()
	gs := getGraphs(b)
	g := gs["web-google"]
	for i := 0; i < b.N; i++ {
		de, err := experiments.RankOrderings(g, 1e-2, 1, true, 2)
		if err != nil {
			b.Fatal(err)
		}
		ne, err := experiments.RankOrderings(g, 1e-2, 16, false, 2)
		if err != nil {
			b.Fatal(err)
		}
		_ = de
		_ = ne
	}
	_ = cfg
}

// BenchmarkConflictCensus regenerates the extension conflict-census table:
// a potential-census probe of each algorithm on the web-google analog.
func BenchmarkConflictCensus(b *testing.B) {
	cfg := benchConfig()
	gs := getGraphs(b)
	g := gs["web-google"]
	for _, name := range append(experiments.AlgoNames(), "spmv", "coloring") {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := experiments.NewAlgorithm(name, g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := algorithms.Probe(a, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvergenceSpeed regenerates the extension iteration-count
// comparison (sync vs det-async vs nondet) for WCC on each graph.
func BenchmarkConvergenceSpeed(b *testing.B) {
	cfg := benchConfig()
	gs := getGraphs(b)
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		for _, s := range []sched.Kind{sched.Synchronous, sched.Deterministic, sched.Nondeterministic} {
			b.Run(fmt.Sprintf("%s/%s", d, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a, err := experiments.NewAlgorithm("wcc", g, cfg)
					if err != nil {
						b.Fatal(err)
					}
					opts := core.Options{Scheduler: s, Threads: 4, Mode: edgedata.ModeAtomic}
					if s == sched.Deterministic {
						opts = core.Options{Scheduler: s}
					}
					if _, _, err := algorithms.Run(a, g, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationDispatch measures the static-vs-dynamic dispatch
// ablation (DESIGN.md S20) on the skewed web-berkstan analog.
func BenchmarkAblationDispatch(b *testing.B) {
	cfg := benchConfig()
	gs := getGraphs(b)
	g := gs["web-berkstan"]
	for _, d := range []sched.Dispatch{sched.Static, sched.Dynamic} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := experiments.NewAlgorithm("wcc", g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_, res, err := algorithms.Run(a, g, core.Options{
					Scheduler: sched.Nondeterministic, Threads: 4,
					Mode: edgedata.ModeAtomic, Dispatch: d,
				})
				if err != nil || !res.Converged {
					b.Fatal("run failed")
				}
			}
		})
	}
}

// BenchmarkAblationLabelOrder measures the label-order ablation: the same
// graph relabeled naturally, hubs-first, and hubs-interleaved.
func BenchmarkAblationLabelOrder(b *testing.B) {
	cfg := benchConfig()
	gs := getGraphs(b)
	base := gs["web-berkstan"]
	variants := map[string]*graph.Graph{"natural": base}
	if hubFirst, err := graph.Relabel(base, graph.DegreeDescOrder(base)); err == nil {
		variants["degree-desc"] = hubFirst
	}
	if inter, err := graph.Relabel(base, graph.DegreeInterleaveOrder(base, 4)); err == nil {
		variants["degree-interleave"] = inter
	}
	for name, g := range variants {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := experiments.NewAlgorithm("wcc", g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := algorithms.Run(a, g, core.Options{
					Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPSWOutOfCore measures the sharded (GraphChi PSW) engine
// against the in-memory result baseline from BenchmarkFig3.
func BenchmarkPSWOutOfCore(b *testing.B) {
	gs := getGraphs(b)
	g := gs["web-google"]
	dir := b.TempDir()
	st, err := shard.Build(g, dir, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range st.Vertices {
			st.Vertices[v] = uint64(v)
		}
		if err := st.FillValues(^uint64(0)); err != nil {
			b.Fatal(err)
		}
		e, err := shard.NewEngine(st, shard.Options{Threads: 2, Mode: edgedata.ModeAtomic})
		if err != nil {
			b.Fatal(err)
		}
		e.Frontier().ScheduleAll()
		wcc := algorithms.NewWCC()
		if _, err := e.Run(wcc.Update); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedWCC measures the message-passing simulator.
func BenchmarkDistributedWCC(b *testing.B) {
	gs := getGraphs(b)
	g := gs["web-google"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dist.WCC(g, dist.Options{Workers: 4, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPathUpdate re-schedules every vertex so a Run capped at b.N iterations
// exercises exactly b.N trips through the dispatch machinery — frontier
// rebuild, (for Synchronous) edge snapshot, pool barrier, update calls.
func hotPathUpdate(ctx core.VertexView) {
	ctx.SetVertex(ctx.Vertex())
	ctx.ScheduleSelf()
}

// BenchmarkHotPathIteration measures the per-iteration cost of the engine's
// steady-state dispatch path; with -benchmem the B/op and allocs/op columns
// certify the allocation-free hot path (the persistent worker pool, reused
// snapshot buffers, and deferred frontier rebuild).
func BenchmarkHotPathIteration(b *testing.B) {
	gs := getGraphs(b)
	g := gs["web-google"]
	mode := edgedata.ModeAligned
	if raceEnabled {
		mode = edgedata.ModeAtomic
	}
	// The observed variants run the full enabled telemetry path (per-
	// iteration Emit through a JSONL sink into io.Discard, barrier timing
	// on); the issue's budget allows them <5% updates/s regression against
	// their unobserved twins.
	newObserved := func() *obs.Observer {
		o := obs.New(obs.Options{})
		o.AttachSink(obs.NewJSONLSink(io.Discard))
		return o
	}
	cases := []struct {
		name string
		opts core.Options
	}{
		{"det", core.Options{Scheduler: sched.Deterministic}},
		{"nondet-static/P4", core.Options{Scheduler: sched.Nondeterministic, Dispatch: sched.Static, Threads: 4, Mode: mode}},
		{"nondet-dynamic/P4", core.Options{Scheduler: sched.Nondeterministic, Dispatch: sched.Dynamic, Threads: 4, Mode: mode}},
		{"sync/P4", core.Options{Scheduler: sched.Synchronous, Threads: 4, Mode: mode}},
		{"det-observed", core.Options{Scheduler: sched.Deterministic, Observer: newObserved()}},
		{"nondet-static-observed/P4", core.Options{Scheduler: sched.Nondeterministic, Dispatch: sched.Static, Threads: 4, Mode: mode, Observer: newObserved()}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			opts := tc.opts
			opts.MaxIters = b.N
			e, err := core.NewEngine(g, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			e.Frontier().ScheduleAll()
			b.ReportAllocs()
			b.ResetTimer()
			res, err := e.Run(hotPathUpdate)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Updates)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkAutonomousVsCoordinatedSSSP contrasts the two scheduling
// categories of the paper's Section I on the same SSSP instance.
func BenchmarkAutonomousVsCoordinatedSSSP(b *testing.B) {
	gs := getGraphs(b)
	g := gs["web-google"]
	src := experiments.PickSource(g)
	s := algorithms.NewSSSP(g, src, 9)
	b.Run("coordinated-det", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.Run(s, g, core.Options{Scheduler: sched.Deterministic}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("autonomous-dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := autonomous.SSSP(g, src, s.Weights); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBFSEngines races every BFS-capable in-memory executor on the
// same single-source instance per benchmark graph: the sequential
// deterministic core, the parallel nondeterministic core, the barrier-free
// async executor, the push (Ligra-style) engine, and the direction-
// optimizing hybrid engine — the acceptance pipeline for the hybrid
// engine's "beats the best existing engine" criterion.
// Each iteration is a full build-and-run so setup costs land on every
// contender equally.
func BenchmarkBFSEngines(b *testing.B) {
	gs := getGraphs(b)
	mode := edgedata.ModeAligned
	if raceEnabled {
		mode = edgedata.ModeAtomic
	}
	const threads = 4
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		src := experiments.PickSource(g)
		run := func(b *testing.B, opts core.Options) {
			b.Helper()
			for i := 0; i < b.N; i++ {
				a := algorithms.NewBFS(g, src)
				_, res, err := algorithms.Run(a, g, opts)
				if err != nil || !res.Converged {
					b.Fatalf("run: %v", err)
				}
			}
		}
		b.Run(fmt.Sprintf("%s/core-det", d), func(b *testing.B) {
			run(b, core.Options{Scheduler: sched.Deterministic})
		})
		b.Run(fmt.Sprintf("%s/core-nondet/P%d", d, threads), func(b *testing.B) {
			run(b, core.Options{Scheduler: sched.Nondeterministic, Threads: threads, Mode: mode})
		})
		b.Run(fmt.Sprintf("%s/async/P%d", d, threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := algorithms.NewBFS(g, src)
				seed, err := core.NewEngine(g, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				a.Setup(seed)
				x, err := async.NewExecutor(g, async.Options{Threads: threads, Mode: edgedata.ModeAtomic})
				if err != nil {
					b.Fatal(err)
				}
				if err := x.LoadFrom(seed); err != nil {
					b.Fatal(err)
				}
				res, err := x.Run(a.Update)
				x.Close()
				if err != nil || !res.Converged {
					b.Fatalf("async: %v", err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/push/P%d", d, threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, res, err := ndgraph.PushBFS(g, src, ndgraph.PushModeCAS, threads)
				if err != nil || !res.Converged {
					b.Fatalf("push: %v", err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/hybrid/P%d", d, threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := hybrid.NewEngine(g, threads)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Run(context.Background(), algorithms.BFSKernel(src))
				e.Close()
				if err != nil || !res.Converged {
					b.Fatalf("hybrid: %v", err)
				}
			}
		})
	}
}

// BenchmarkNoSyncEngines is the acceptance pipeline for the work-stealing
// no-sync tier: WCC — every vertex seeded, maximal
// scheduling traffic — through the channel-based async executor and the
// work-stealing executor at 8 threads on each benchmark graph, alongside
// the parallel core engine for context. The channel executor serializes
// every schedule and receive through one channel; the per-worker deques
// must beat it on at least 3 of the 4 graphs.
func BenchmarkNoSyncEngines(b *testing.B) {
	gs := getGraphs(b)
	const threads = 8
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		b.Run(fmt.Sprintf("%s/core-nondet/P%d", d, threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := algorithms.NewWCC()
				_, res, err := algorithms.Run(a, g, core.Options{
					Scheduler: sched.Nondeterministic, Threads: threads, Mode: edgedata.ModeAtomic,
				})
				if err != nil || !res.Converged {
					b.Fatalf("core-nondet: %v", err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/async/P%d", d, threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := algorithms.NewWCC()
				seed, err := core.NewEngine(g, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				a.Setup(seed)
				x, err := async.NewExecutor(g, async.Options{Threads: threads, Mode: edgedata.ModeAtomic})
				if err != nil {
					b.Fatal(err)
				}
				if err := x.LoadFrom(seed); err != nil {
					b.Fatal(err)
				}
				res, err := x.Run(a.Update)
				x.Close()
				if err != nil || !res.Converged {
					b.Fatalf("async: %v", err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/nosync/P%d", d, threads), func(b *testing.B) {
			a := algorithms.NewWCC()
			v, err := algorithms.NoSyncVerdict(a, g)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				seed, err := core.NewEngine(g, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				a.Setup(seed)
				x, err := async.NewNoSync(g, async.NoSyncOptions{
					Threads: threads, Mode: edgedata.ModeAtomic, Verdict: &v,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := x.LoadFrom(seed); err != nil {
					b.Fatal(err)
				}
				res, err := x.Run(a.Update)
				x.Close()
				if err != nil || !res.Converged {
					b.Fatalf("nosync: %v", err)
				}
			}
		})
	}
}
