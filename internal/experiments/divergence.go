package experiments

import (
	"os"

	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// This file is the execution-path counterpart of the Section V-C variance
// study: instead of comparing converged *results*, it records the full
// execution path of two runs of the same nondeterministic configuration
// and diffs them — reporting where the runs first parted ways, how the
// divergence frontier evolved per iteration, and the propagation-distance
// histogram that classifies each diverged update by the paper's
// happens-before (≺), happens-after (≻), and concurrent (∥) relations.

// divergencePairCap bounds the record-and-diff attempts per algorithm: a
// racy schedule is not *guaranteed* to diverge on any single pair, so the
// study retries fresh pairs until it catches one (or gives up and reports
// the identical pair — itself a meaningful observation at small scales).
const divergencePairCap = 6

// DivergenceRow is one algorithm's record/diff outcome: the size of the
// diverged set and its Section II classification.
type DivergenceRow struct {
	Algo  string `col:"algorithm"`
	Graph string
	// Threads is the worker count both recorded runs used.
	Threads int
	// Pairs is how many recorded pairs were diffed before one diverged
	// (== divergencePairCap if none did).
	Pairs int
	// Events is the update count of the pair's first run.
	Events int64
	// Diverged counts updates whose (writes, committed value) differ; the
	// next three split the ones after the first by relation to it (≺ must
	// stay empty: a racy commit propagates forward only).
	Diverged   int64
	Before     int64 `col:"≺"`
	After      int64 `col:"≻"`
	Concurrent int64 `col:"∥"`
	// MaxD is the largest propagation distance seen (-1 if none).
	MaxD int `col:"max d"`
}

// traceRecordedRun executes one nondeterministic run of the named algorithm
// on g with an attached recorder and returns the snapshot trace.
func traceRecordedRun(name string, g *graph.Graph, cfg Config, threads int, meta trace.Meta) (*trace.Trace, error) {
	a, err := NewAlgorithm(name, g, cfg)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(1 << 21)
	if _, _, err := solve(a, g, core.Options{
		Scheduler: sched.Nondeterministic,
		Threads:   threads,
		Mode:      edgedata.ModeAtomic,
		Amplify:   true,
		Trace:     rec,
	}); err != nil {
		return nil, err
	}
	return rec.Snapshot(meta), nil
}

// DivergenceStudy records pairs of nondeterministic runs (threads=4,
// amplified, atomic edge data) of PageRank and WCC on the web-google
// analog and diffs each pair's execution paths. When cfg.TracePath is set,
// the last recorded pair is saved as TracePath-a.ndt / TracePath-b.ndt for
// offline inspection with ndtrace.
func DivergenceStudy(cfg Config) ([]DivergenceRow, error) {
	cfg.validate()
	g, err := synth(cfg, gen.WebGoogle)
	if err != nil {
		return nil, err
	}
	meta := trace.Meta{Vertices: g.N(), Edges: g.M()}
	const threads = 4
	var rows []DivergenceRow
	for _, name := range []string{"pagerank", "wcc"} {
		row := DivergenceRow{Algo: name, Graph: gen.WebGoogle.String(), Threads: threads}
		var a, b *trace.Trace
		var rep *trace.DiffReport
		for row.Pairs = 1; row.Pairs <= divergencePairCap; row.Pairs++ {
			if a, err = traceRecordedRun(name, g, cfg, threads, meta); err != nil {
				return nil, err
			}
			if b, err = traceRecordedRun(name, g, cfg, threads, meta); err != nil {
				return nil, err
			}
			rep = trace.Diff(a, b)
			if !rep.Identical() {
				break
			}
		}
		if row.Pairs > divergencePairCap {
			row.Pairs = divergencePairCap
		}
		row.Events, row.Diverged, row.MaxD = rep.EventsA, rep.Diverged, rep.Hist.MaxD()
		row.Before, row.After, row.Concurrent = sum(rep.Hist.Before), sum(rep.Hist.After), sum(rep.Hist.Concurrent)
		if cfg.TracePath != "" {
			for suffix, t := range map[string]*trace.Trace{"-a.ndt": a, "-b.ndt": b} {
				f, err := os.Create(cfg.TracePath + "-" + name + suffix)
				if err != nil {
					return nil, err
				}
				if err := trace.WriteBinary(f, t); err != nil {
					f.Close()
					return nil, err
				}
				if err := f.Close(); err != nil {
					return nil, err
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
