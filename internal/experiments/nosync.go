package experiments

import (
	"context"
	"fmt"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/async"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// This file is the evaluation of the work-stealing no-sync tier: a BFS
// scaling sweep racing it against every other in-memory engine, and a
// drift measurement that records the tier's execution path and diffs it
// against the deterministic reference — putting a number on "how
// nondeterministic" barrier-free execution actually is, rather than only
// checking that its fixed point lands in the right place.

// NoSyncScaleRow is one (graph, engine, threads) timing cell of the
// no-sync scaling sweep.
type NoSyncScaleRow struct {
	Graph   string
	Engine  string // core-nondet | hybrid | async | nosync
	Threads int
	// Time is the best wall time over noSyncRuns runs.
	Time time.Duration
	// Updates counts the engine's unit of work (vertex updates or
	// hybrid offers adopted); engines count differently, so compare within
	// a column, not across.
	Updates int64
	// Steals and IdleTransitions are the work-stealing tier's imbalance
	// telemetry; zero for every other engine.
	Steals          int64
	IdleTransitions int64
}

// NoSyncDriftRow quantifies execution drift of one barrier-free
// work-stealing WCC run against the deterministic reference on the same
// input.
type NoSyncDriftRow struct {
	Graph   string
	Threads int
	// DetEvents / NoSyncEvents are the recorded update counts of each side.
	DetEvents, NoSyncEvents int64
	// Diverged counts updates whose (writes, committed value) differ
	// between the two execution paths.
	Diverged int64
	// PathIdentical reports whether the *execution paths* were identical —
	// almost never true for a work-stealing run, which is the point.
	PathIdentical bool
	// ResultsEqual reports whether the converged vertex labels are
	// byte-identical — which Theorem 2 demands despite path divergence.
	ResultsEqual bool
	// Report carries the full canonical diff (first divergence, frontier
	// evolution, ≺/≻/∥ histogram).
	Report *trace.DiffReport
}

// noSyncRuns is the best-of count per timing cell.
const noSyncRuns = 3

// noSyncBFSOnce runs one BFS instance through the named engine and
// returns (wall time, work units, steals, idle transitions).
func noSyncBFSOnce(engine string, g *graph.Graph, src uint32, threads int) (time.Duration, int64, int64, int64, error) {
	switch engine {
	case "core-nondet":
		a := algorithms.NewBFS(g, src)
		_, res, err := algorithms.Run(a, g, core.Options{
			Scheduler: sched.Nondeterministic, Threads: threads, Mode: edgedata.ModeAtomic,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !res.Converged {
			return 0, 0, 0, 0, fmt.Errorf("did not converge")
		}
		return res.Duration, res.Updates, 0, 0, nil
	case "hybrid":
		e, err := hybrid.NewEngine(g, threads)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer e.Close()
		res, err := e.Run(context.Background(), algorithms.BFSKernel(src))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !res.Converged {
			return 0, 0, 0, 0, fmt.Errorf("did not converge")
		}
		return res.Duration, res.Updates, 0, 0, nil
	case "async":
		a := algorithms.NewBFS(g, src)
		seed, err := core.NewEngine(g, core.Options{})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		a.Setup(seed)
		x, err := async.NewExecutor(g, async.Options{Threads: threads, Mode: edgedata.ModeAtomic})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer x.Close()
		if err := x.LoadFrom(seed); err != nil {
			return 0, 0, 0, 0, err
		}
		res, err := x.Run(a.Update)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !res.Converged {
			return 0, 0, 0, 0, fmt.Errorf("did not converge")
		}
		return res.Duration, res.Updates, 0, 0, nil
	case "nosync":
		a := algorithms.NewBFS(g, src)
		v, err := algorithms.NoSyncVerdict(a, g)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		seed, err := core.NewEngine(g, core.Options{})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		a.Setup(seed)
		x, err := async.NewNoSync(g, async.NoSyncOptions{
			Threads: threads, Mode: edgedata.ModeAtomic, Verdict: &v,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer x.Close()
		if err := x.LoadFrom(seed); err != nil {
			return 0, 0, 0, 0, err
		}
		res, err := x.Run(a.Update)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !res.Converged {
			return 0, 0, 0, 0, fmt.Errorf("did not converge")
		}
		return res.Duration, res.Updates, res.Steals, res.IdleTransitions, nil
	}
	return 0, 0, 0, 0, fmt.Errorf("unknown engine %q", engine)
}

// NoSyncEngines lists the sweep's contenders in display order.
func NoSyncEngines() []string {
	return []string{"core-nondet", "hybrid", "async", "nosync"}
}

// NoSyncStudy produces the work-stealing tier's evaluation: a BFS scaling
// sweep over every benchmark graph × engine × thread count (best of
// noSyncRuns), plus one WCC drift row per graph diffing a trace-recorded
// no-sync run against the deterministic reference.
func NoSyncStudy(cfg Config) ([]NoSyncScaleRow, []NoSyncDriftRow, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, nil, err
	}
	var scale []NoSyncScaleRow
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		src := PickSource(g)
		for _, engine := range NoSyncEngines() {
			for _, p := range cfg.Threads {
				row := NoSyncScaleRow{Graph: d.String(), Engine: engine, Threads: p, Time: 1<<63 - 1}
				for i := 0; i < noSyncRuns; i++ {
					t, updates, steals, idles, err := noSyncBFSOnce(engine, g, src, p)
					if err != nil {
						return nil, nil, fmt.Errorf("experiments: nosync sweep %s/%s/P%d: %w", d, engine, p, err)
					}
					if t < row.Time {
						row.Time = t
						row.Updates = updates
						row.Steals = steals
						row.IdleTransitions = idles
					}
				}
				scale = append(scale, row)
			}
		}
	}
	drift, err := noSyncDrift(cfg, gs)
	if err != nil {
		return nil, nil, err
	}
	return scale, drift, nil
}

// noSyncDrift records a deterministic WCC run and a work-stealing WCC run
// on each graph and diffs their execution paths.
func noSyncDrift(cfg Config, gs map[string]*graph.Graph) ([]NoSyncDriftRow, error) {
	const threads = 4
	var rows []NoSyncDriftRow
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		meta := trace.Meta{Vertices: g.N(), Edges: g.M()}
		// Deterministic reference, trace-recorded.
		detRec := trace.NewRecorder(1 << 21)
		detEng, detRes, err := algorithms.Run(algorithms.NewWCC(), g, core.Options{
			Scheduler: sched.Deterministic, Trace: detRec,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: nosync drift det %s: %w", d, err)
		}
		if !detRes.Converged {
			return nil, fmt.Errorf("experiments: nosync drift det %s: did not converge", d)
		}
		// Work-stealing run, trace-recorded.
		wcc := algorithms.NewWCC()
		v, err := algorithms.NoSyncVerdict(wcc, g)
		if err != nil {
			return nil, err
		}
		seed, err := core.NewEngine(g, core.Options{})
		if err != nil {
			return nil, err
		}
		wcc.Setup(seed)
		nsRec := trace.NewRecorder(1 << 21)
		x, err := async.NewNoSync(g, async.NoSyncOptions{
			Threads: threads, Mode: edgedata.ModeAtomic, Trace: nsRec, Verdict: &v,
		})
		if err != nil {
			return nil, err
		}
		if err := x.LoadFrom(seed); err != nil {
			x.Close()
			return nil, err
		}
		nsRes, err := x.Run(wcc.Update)
		x.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: nosync drift %s: %w", d, err)
		}
		if !nsRes.Converged {
			return nil, fmt.Errorf("experiments: nosync drift %s: did not converge", d)
		}
		equal := true
		for u := range x.Vertices {
			if x.Vertices[u] != detEng.Vertices[u] {
				equal = false
				break
			}
		}
		rep := trace.Diff(detRec.Snapshot(meta), nsRec.Snapshot(meta))
		rows = append(rows, NoSyncDriftRow{
			Graph:         d.String(),
			Threads:       threads,
			DetEvents:     rep.EventsA,
			NoSyncEvents:  rep.EventsB,
			Diverged:      rep.Diverged,
			PathIdentical: rep.Identical(),
			ResultsEqual:  equal,
			Report:        rep,
		})
	}
	return rows, nil
}
