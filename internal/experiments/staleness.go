package experiments

import (
	"fmt"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/async"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// This file is the staleness study: it instruments barrier-free runs with
// the delay clocks of internal/obs and asks how stale the values a
// work-stealing run actually reads are — measured in elapsed updates
// between a value's publish and its read — and how far its execution path
// drifts from the deterministic one as workers are added, while the
// Theorem-2 fixed point stays byte-identical.

// StalenessRow is one (graph, threads) cell of the staleness-vs-drift
// study: a delay-clock-instrumented, trace-recorded work-stealing WCC run
// diffed against the trace-recorded deterministic reference.
type StalenessRow struct {
	Graph   string
	Threads int
	// Updates is the run's executed update count; Steals its migrations.
	Updates, Steals int64
	// Reads counts delay-clock read observations (edge reads of published
	// values); Overflow the reads staler than the histogram's last bucket.
	Reads int64
	// DelayP50/P99/DelayMax are staleness quantiles in elapsed updates
	// between a value's publish and its read.
	DelayP50 int64 `col:"delay-p50"`
	DelayP99 int64 `col:"delay-p99"`
	DelayMax int64 `col:"delay-max"`
	Overflow int64
	// DetEvents and NoSyncEvents are the recorded update counts of the
	// deterministic and the work-stealing path; Diverged counts the events
	// that differ between them.
	DetEvents    int64 `col:"det events"`
	NoSyncEvents int64 `col:"nosync events"`
	Diverged     int64
	// ResultsEqual reports whether the converged labels are nonetheless
	// byte-identical (Theorem 2's claim).
	ResultsEqual bool `col:"results equal"`
}

// stalenessThreads is the worker sweep of the staleness study; drift and
// staleness both grow with workers, which is the correlation on display.
var stalenessThreads = []int{1, 2, 4, 8}

// StalenessStudy runs the staleness study over the benchmark graph suite.
func StalenessStudy(cfg Config) ([]StalenessRow, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, err
	}
	var stale []StalenessRow
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		for _, p := range stalenessThreads {
			row, err := stalenessOnce(g, p)
			if err != nil {
				return nil, fmt.Errorf("experiments: staleness %s/P%d: %w", d, p, err)
			}
			row.Graph = d.String()
			stale = append(stale, row)
		}
	}
	return stale, nil
}

// stalenessOnce runs one delay-instrumented work-stealing WCC and diffs it
// against the deterministic reference.
func stalenessOnce(g *graph.Graph, threads int) (StalenessRow, error) {
	meta := trace.Meta{Vertices: g.N(), Edges: g.M()}
	detRec := trace.NewRecorder(1 << 21)
	detEng, _, err := solve(algorithms.NewWCC(), g, core.Options{
		Scheduler: sched.Deterministic, Trace: detRec,
	})
	if err != nil {
		return StalenessRow{}, err
	}

	// A private sink-less observer: its only job is to make the engine
	// attach a delay clock and register it as a delay source.
	o := obs.New(obs.Options{})
	defer o.Close()
	nsRec := trace.NewRecorder(1 << 21)
	x, res, err := solveNoSync(algorithms.NewWCC(), g, async.NoSyncOptions{
		Threads: threads, Mode: edgedata.ModeAtomic, Trace: nsRec, Observer: o,
	})
	if err != nil {
		return StalenessRow{}, err
	}
	defer x.Close()

	row := StalenessRow{Threads: threads, Updates: res.Updates, Steals: res.Steals, ResultsEqual: true}
	for u := range x.Vertices {
		if x.Vertices[u] != detEng.Vertices[u] {
			row.ResultsEqual = false
			break
		}
	}
	for _, s := range o.DelaySnapshots() {
		if s.Engine == "nosync" {
			row.Reads, row.Overflow = s.Count, s.Overflow
			row.DelayP50, row.DelayP99, row.DelayMax = s.P50, s.P99, s.Max
		}
	}
	rep := trace.Diff(detRec.Snapshot(meta), nsRec.Snapshot(meta))
	row.DetEvents, row.NoSyncEvents, row.Diverged = rep.EventsA, rep.EventsB, rep.Diverged
	return row, nil
}
