package experiments

import (
	"context"
	"fmt"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/sched"
)

// This file is the scaling sweep of the work-stealing no-sync tier: BFS
// raced against the barrier-based engines on every benchmark graph. Its
// drift from the deterministic path is measured by the staleness study.

// NoSyncScaleRow is one (graph, engine, threads) timing cell of the
// no-sync scaling sweep.
type NoSyncScaleRow struct {
	Graph   string
	Engine  string // core-nondet | hybrid | nosync
	Threads int
	// Time is the best wall time over noSyncRuns runs.
	Time time.Duration `col:"time(s)"`
	// Updates counts the engine's unit of work (vertex updates or
	// hybrid offers adopted); engines count differently, so compare within
	// a column, not across.
	Updates int64
	// Steals and IdleTransitions are the work-stealing tier's imbalance
	// telemetry; zero for every other engine.
	Steals          int64
	IdleTransitions int64 `col:"idle-trans"`
}

// noSyncRuns is the best-of count per timing cell.
const noSyncRuns = 3

// NoSyncEngines lists the sweep's contenders in display order.
func NoSyncEngines() []string {
	return []string{"core-nondet", "hybrid", "nosync"}
}

// noSyncBFSOnce runs one BFS instance through the named engine.
func noSyncBFSOnce(engine string, g *graph.Graph, src uint32, threads int) (NoSyncScaleRow, error) {
	row := NoSyncScaleRow{Engine: engine, Threads: threads}
	switch engine {
	case "core-nondet", "nosync":
		kind := sched.Nondeterministic
		if engine == "nosync" {
			kind = sched.NoSync
		}
		e, res, err := solve(algorithms.NewBFS(g, src), g, core.Options{Scheduler: kind, Threads: threads, Mode: edgedata.ModeAtomic})
		if e != nil {
			e.Close()
		}
		row.Time, row.Updates, row.Steals, row.IdleTransitions = res.Duration, res.Updates, res.Steals, res.IdleTransitions
		return row, err
	case "hybrid":
		e, err := hybrid.NewEngine(g, threads)
		if err != nil {
			return row, err
		}
		defer e.Close()
		res, err := e.Run(context.Background(), algorithms.BFSKernel(src))
		if err == nil && !res.Converged {
			err = fmt.Errorf("did not converge")
		}
		row.Time, row.Updates = res.Duration, res.Updates
		return row, err
	}
	return row, fmt.Errorf("unknown engine %q", engine)
}

// NoSyncStudy races BFS through every engine of NoSyncEngines over every
// benchmark graph × thread count (best of noSyncRuns).
func NoSyncStudy(cfg Config) ([]NoSyncScaleRow, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, err
	}
	var rows []NoSyncScaleRow
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		src := PickSource(g)
		for _, engine := range NoSyncEngines() {
			for _, p := range cfg.Threads {
				var best NoSyncScaleRow
				for i := 0; i < noSyncRuns; i++ {
					row, err := noSyncBFSOnce(engine, g, src, p)
					if err != nil {
						return nil, fmt.Errorf("experiments: nosync sweep %s/%s/P%d: %w", d, engine, p, err)
					}
					if i == 0 || row.Time < best.Time {
						best = row
					}
				}
				best.Graph = d.String()
				rows = append(rows, best)
			}
		}
	}
	return rows, nil
}
