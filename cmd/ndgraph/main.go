// Command ndgraph runs one graph algorithm on one graph under a chosen
// scheduler, atomicity mode, and thread count, and reports the run
// statistics — the CLI face of the library.
//
// Examples:
//
//	ndgraph -algo wcc -dataset web-google -scale 100 \
//	        -sched nondet -mode arch -threads 8
//	ndgraph -algo pagerank -graph my-edges.txt -eps 1e-4 -sched det -top 10
//	ndgraph -algo sssp -dataset cage15 -scale 200 -probe
//	ndgraph -algo wcc -dataset web-google -scale 100 -advise
//
// Input is either -graph FILE (edge list, .bin, or .mtx) or -dataset NAME
// with -scale (a synthetic analog of one of the paper's graphs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/experiments"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/loader"
	"ndgraph/internal/metrics"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ndgraph:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ndgraph", flag.ContinueOnError)
	algoName := fs.String("algo", "wcc", "algorithm: pagerank, wcc, sssp, bfs, spmv, kcore, labelprop, coloring")
	graphFile := fs.String("graph", "", "graph file (edge list, .bin, or .mtx)")
	dataset := fs.String("dataset", "", "synthetic dataset analog: web-berkstan, web-google, soc-livejournal1, cage15")
	scale := fs.Int("scale", 100, "dataset scale divisor (with -dataset)")
	seed := fs.Uint64("seed", 42, "random seed (graph synthesis, SSSP weights)")
	schedName := fs.String("sched", "det", "scheduler: det, nondet, sync, dig, nosync (barrier-free; eligible algorithms only)")
	modeName := fs.String("mode", "atomic", "edge atomicity: seq, lock, arch, atomic")
	threads := fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	eps := fs.Float64("eps", 1e-3, "convergence threshold ε (pagerank, spmv)")
	source := fs.Int("source", -1, "traversal source vertex (-1 = highest out-degree)")
	top := fs.Int("top", 0, "print the top-K vertices by result value")
	probe := fs.Bool("probe", false, "probe conflicts and print the eligibility verdict instead of timing")
	advise := fs.Bool("advise", false, "print the certificate and probe-based eligibility verdicts side by side")
	amplify := fs.Bool("amplify", false, "inject scheduling yields to widen race windows")
	census := fs.Bool("census", false, "count observed conflicts during the run")
	dispatch := fs.String("dispatch", "static", "intra-iteration dispatch: static (Fig. 1 blocks) or dynamic (chunked)")
	tracePath := fs.String("trace", "", "record the execution path + commit log as an NDTR binary trace to this file (inspect with ndtrace)")
	traceCSV := fs.String("trace-csv", "", "write the execution path as CSV to this file")
	telemetry := fs.String("telemetry", "", "write per-iteration telemetry as JSON lines to this file")
	telemetryAddr := fs.String("telemetry-addr", "", "serve live /metrics, /events, and /debug/pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := loadInput(*graphFile, *dataset, *scale, *seed)
	if err != nil {
		return err
	}
	st := g.ComputeStats()
	fmt.Fprintf(out, "graph: %d vertices, %d edges (max in %d, max out %d)\n",
		st.Vertices, st.Edges, st.MaxInDeg, st.MaxOutDeg)

	src := uint32(0)
	if *source >= 0 {
		if *source >= g.N() {
			return fmt.Errorf("source %d out of range (|V| = %d)", *source, g.N())
		}
		src = uint32(*source)
	} else {
		src = experiments.PickSource(g)
	}

	a, err := algorithms.New(*algoName, g, src, *eps, *seed)
	if err != nil {
		return err
	}

	if *advise {
		return runAdvise(out, a, g)
	}
	if *probe {
		profile, verdict, err := algorithms.Probe(a, g)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nalgorithm: %s\npotential conflicts: %d read-write edge(s), %d write-write edge(s)\n%s\n",
			a.Name(), profile.RW, profile.WW, verdict)
		return nil
	}

	kind, err := sched.ParseKind(*schedName)
	if err != nil {
		return err
	}
	mode, err := edgedata.ParseMode(*modeName)
	if err != nil {
		return err
	}
	disp, ok := sched.ParseDispatch(*dispatch)
	if !ok {
		return fmt.Errorf("unknown dispatch policy %q", *dispatch)
	}
	var rec *trace.Recorder
	if *tracePath != "" || *traceCSV != "" {
		rec = trace.NewRecorder(1 << 22)
		if *tracePath != "" {
			// The binary trace carries the commit log so ndtrace replay can
			// force the recorded racy outcomes.
			rec.EnableCommits(1<<23, g.M())
		}
	}
	var observer *obs.Observer
	if *telemetry != "" || *telemetryAddr != "" {
		observer = obs.New(obs.Options{SampleConflicts: *census})
		if *telemetry != "" {
			f, err := os.Create(*telemetry)
			if err != nil {
				return err
			}
			observer.AttachSink(obs.NewJSONLSink(f))
		}
		if *telemetryAddr != "" {
			srv, err := obs.Serve(*telemetryAddr, observer)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(out, "telemetry: serving /metrics and /debug/pprof on %s\n", srv.Addr())
		}
		observer.PublishExpvar("ndgraph")
		defer observer.Close()
	}
	eng, res, err := algorithms.Run(a, g, core.Options{
		Scheduler:    kind,
		Threads:      *threads,
		Mode:         mode,
		Amplify:      *amplify,
		EnableCensus: *census,
		Dispatch:     disp,
		Trace:        rec,
		Observer:     observer,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nalgorithm: %s  scheduler: %s  mode: %s  threads: %d\n",
		a.Name(), kind, mode, eng.Options().Threads)
	fmt.Fprintf(out, "converged: %v  iterations: %d  updates: %d  time: %v\n",
		res.Converged, res.Iterations, res.Updates, res.Duration)
	if *census {
		fmt.Fprintf(out, "observed conflicts: %d read-write, %d write-write edge(s)\n",
			res.RWConflicts, res.WWConflicts)
	}
	if *top > 0 {
		printTop(out, eng, a, *top)
	}
	if rec != nil {
		snap := rec.Snapshot(trace.Meta{
			Vertices: g.N(), Edges: g.M(),
			KV: map[string]string{
				"algo":     *algoName,
				"graph":    *graphFile,
				"dataset":  *dataset,
				"scale":    fmt.Sprint(*scale),
				"seed":     fmt.Sprint(*seed),
				"sched":    kind.String(),
				"mode":     mode.String(),
				"threads":  fmt.Sprint(eng.Options().Threads),
				"eps":      fmt.Sprint(*eps),
				"source":   fmt.Sprint(src),
				"amplify":  fmt.Sprint(*amplify),
				"dispatch": *dispatch,
			},
		})
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			if err := trace.WriteBinary(f, snap); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "trace: %d events, %d commits written to %s\n",
				len(snap.Events), len(snap.Commits), *tracePath)
		}
		if *traceCSV != "" {
			f, err := os.Create(*traceCSV)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := rec.WriteCSV(f); err != nil {
				return err
			}
			fmt.Fprintf(out, "trace: %d events written to %s\n", rec.Len(), *traceCSV)
		}
		observer.SetTraceSource(func(w io.Writer) error { return trace.WriteBinary(w, snap) })
	}
	return nil
}

func loadInput(file, dataset string, scale int, seed uint64) (*graph.Graph, error) {
	switch {
	case file != "" && dataset != "":
		return nil, fmt.Errorf("pass either -graph or -dataset, not both")
	case file != "":
		return loader.LoadFile(file, graph.Options{})
	case dataset != "":
		d, err := gen.ParseDataset(dataset)
		if err != nil {
			return nil, err
		}
		return gen.Synthesize(d, scale, seed)
	default:
		return nil, fmt.Errorf("need -graph FILE or -dataset NAME")
	}
}

// runAdvise prints both eligibility verdicts for a: the admission one
// (NoSyncVerdict: the embedded certificate's, for a built-in algorithm —
// its static worst-case profile, graph-independent) and the probe one,
// from an instrumented run on g. A certificate ELIGIBLE holds for every
// input; a probe ELIGIBLE only for inputs whose census the probed graph
// dominates.
func runAdvise(out io.Writer, a algorithms.Algorithm, g *graph.Graph) error {
	certVerdict, err := algorithms.NoSyncVerdict(a, g)
	if err != nil {
		return err
	}
	census, probeVerdict, err := algorithms.Probe(a, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nalgorithm: %s\nprobe census: %d read-write edge(s), %d write-write edge(s)\n\n%s\n\n%s\n",
		a.Name(), census.RW, census.WW, certVerdict, probeVerdict)
	if certVerdict.Eligible != probeVerdict.Eligible {
		fmt.Fprintf(out, "\nnote: the sources disagree — the certificate's worst-case conflict class did not materialize on this graph\n")
	}
	return nil
}

func printTop(out io.Writer, eng *core.Engine, a algorithms.Algorithm, k int) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	defer w.Flush()
	switch alg := a.(type) {
	case *algorithms.PageRank:
		ranks := alg.Ranks(eng)
		order := metrics.RankOrder(ranks)
		fmt.Fprintln(w, "\nrank\tvertex\tscore")
		for i := 0; i < k && i < len(order); i++ {
			fmt.Fprintf(w, "%d\t%d\t%.6f\n", i, order[i], ranks[order[i]])
		}
	case *algorithms.SSSP:
		d := alg.Distances(eng)
		fmt.Fprintln(w, "\nvertex\tdistance")
		for v := 0; v < k && v < len(d); v++ {
			fmt.Fprintf(w, "%d\t%g\n", v, d[v])
		}
	case *algorithms.WCC:
		labels := alg.Components(eng)
		fmt.Fprintf(w, "\ncomponents: %d\n", algorithms.NumComponents(labels))
		fmt.Fprintln(w, "vertex\tcomponent")
		for v := 0; v < k && v < len(labels); v++ {
			fmt.Fprintf(w, "%d\t%d\n", v, labels[v])
		}
	default:
		fmt.Fprintln(w, "\n(-top not supported for this algorithm)")
	}
}
