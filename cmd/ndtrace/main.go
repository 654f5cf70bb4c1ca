// Command ndtrace inspects, diffs, and replays NDTR execution-path traces
// recorded by ndgraph -trace (or any engine with an attached
// trace.Recorder).
//
//	ndtrace stats run.ndt             # provenance + per-iteration profile
//	ndtrace csv run.ndt               # dump the execution path as CSV
//	ndtrace diff a.ndt b.ndt          # first divergence, frontier, d-histogram
//	ndtrace replay run.ndt            # force the recorded outcomes, assert
//	                                  # the byte-identical fixed point
//
// diff answers "where did two runs of the same nondeterministic
// configuration part ways": the first divergent update, the per-iteration
// divergence frontier, and a propagation-distance histogram classifying
// every diverged update by the paper's happens-before (≺), happens-after
// (≻), and concurrent (∥) relations. replay is Lemmas 1–2 made executable:
// it rebuilds the recorded run's graph and algorithm from the trace's
// provenance, re-executes the path forcing every recorded racy commit, and
// asserts the final state digest matches the recorded one.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/loader"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ndtrace:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: ndtrace stats FILE | csv FILE | diff FILE_A FILE_B | replay FILE")
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return usage()
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "stats":
		if len(rest) != 1 {
			return usage()
		}
		return stats(rest[0], out)
	case "csv":
		if len(rest) != 1 {
			return usage()
		}
		return csv(rest[0], out)
	case "diff":
		if len(rest) != 2 {
			return usage()
		}
		return diff(rest[0], rest[1], out)
	case "replay":
		if len(rest) != 1 {
			return usage()
		}
		return replay(rest[0], out)
	default:
		return usage()
	}
}

func load(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := trace.ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func stats(path string, out io.Writer) error {
	t, err := load(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %s\n", path)
	fmt.Fprintf(out, "graph: %d vertices, %d edges\n", t.Meta.Vertices, t.Meta.Edges)
	if len(t.Meta.KV) > 0 {
		keys := make([]string, 0, len(t.Meta.KV))
		for k := range t.Meta.KV {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "  %s: %s\n", k, t.Meta.KV[k])
		}
	}
	fmt.Fprintf(out, "events: %d of %d retained\n", len(t.Events), t.TotalEvents)
	fmt.Fprintf(out, "commits: %d of %d retained\n", len(t.Commits), t.TotalCommits)
	if t.HasDigest {
		fmt.Fprintf(out, "final-state digest: %#016x\n", t.Digest)
	} else {
		fmt.Fprintln(out, "final-state digest: (absent)")
	}
	if t.Truncated() {
		fmt.Fprintln(out, "WARNING: trace is truncated; it will diff but not replay")
	}

	// Per-iteration profile: updates, edge writes, distinct workers.
	type iterStat struct {
		updates, writes int64
		workers         map[int32]struct{}
	}
	iters := map[int32]*iterStat{}
	var order []int32
	for i := range t.Events {
		ev := &t.Events[i]
		s := iters[ev.Iteration]
		if s == nil {
			s = &iterStat{workers: map[int32]struct{}{}}
			iters[ev.Iteration] = s
			order = append(order, ev.Iteration)
		}
		s.updates++
		s.writes += int64(ev.Writes)
		s.workers[ev.Worker] = struct{}{}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	fmt.Fprintf(out, "iterations: %d\n", len(order))
	fmt.Fprintln(out, "iter\tupdates\twrites\tworkers")
	for _, it := range order {
		s := iters[it]
		fmt.Fprintf(out, "%d\t%d\t%d\t%d\n", it, s.updates, s.writes, len(s.workers))
	}
	return nil
}

func csv(path string, out io.Writer) error {
	t, err := load(path)
	if err != nil {
		return err
	}
	return t.WriteCSV(out)
}

func diff(pathA, pathB string, out io.Writer) error {
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "diff %s %s\n", pathA, pathB)
	return trace.Diff(a, b).WriteReport(out)
}

func replay(path string, out io.Writer) error {
	t, err := load(path)
	if err != nil {
		return err
	}
	g, a, err := rebuild(t.Meta)
	if err != nil {
		return fmt.Errorf("cannot rebuild the recorded run: %w", err)
	}
	e, err := core.NewEngine(g, core.Options{Scheduler: sched.Deterministic})
	if err != nil {
		return err
	}
	a.Setup(e)
	rep, err := e.ReplayTrace(t, a.Update)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %d updates, %d forced commits\n", rep.Updates, rep.Commits)
	fmt.Fprintf(out, "recomputation: %d writes matched, %d mismatched (racy reads), %d missing, %d extra, %d orphan commits\n",
		rep.WriteMatches, rep.WriteMismatches, rep.MissingWrites, rep.ExtraWrites, rep.OrphanCommits)
	fmt.Fprintf(out, "vertex values: %d matched, %d forced\n", rep.ValueMatches, rep.ValueMismatches)
	fmt.Fprintf(out, "fixed point: byte-identical (digest %#016x)\n", rep.Digest)
	return nil
}

// rebuild reconstructs the recorded run's graph and algorithm from the
// trace provenance written by ndgraph -trace.
func rebuild(m trace.Meta) (*graph.Graph, algorithms.Algorithm, error) {
	kv := func(k string) string { return m.KV[k] }
	var g *graph.Graph
	var err error
	switch {
	case kv("graph") != "":
		g, err = loader.LoadFile(kv("graph"), graph.Options{})
	case kv("dataset") != "":
		var d gen.Dataset
		d, err = gen.ParseDataset(kv("dataset"))
		if err == nil {
			scale := atoiDefault(kv("scale"), 100)
			seed := atouDefault(kv("seed"), 42)
			g, err = gen.Synthesize(d, scale, seed)
		}
	default:
		return nil, nil, fmt.Errorf("trace has no graph/dataset provenance")
	}
	if err != nil {
		return nil, nil, err
	}
	if m.Vertices != 0 && m.Vertices != g.N() {
		return nil, nil, fmt.Errorf("rebuilt graph has %d vertices, trace recorded %d", g.N(), m.Vertices)
	}

	// The same constructor ndgraph used, with ndgraph's flag defaults.
	a, err := algorithms.New(kv("algo"), g, uint32(atoiDefault(kv("source"), 0)),
		atofDefault(kv("eps"), 1e-3), atouDefault(kv("seed"), 42))
	if err != nil {
		return nil, nil, fmt.Errorf("trace provenance: %w", err)
	}
	return g, a, nil
}

func atoiDefault(s string, def int) int {
	if v, err := strconv.Atoi(s); err == nil {
		return v
	}
	return def
}

func atouDefault(s string, def uint64) uint64 {
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v
	}
	return def
}

func atofDefault(s string, def float64) float64 {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	return def
}
