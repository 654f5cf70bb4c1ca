package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// recordFixture records one WCC run with the same provenance KV the ndgraph
// CLI writes, and saves it as an NDTR file.
func recordFixture(t *testing.T, dir, name string, kind sched.Kind, threads int) string {
	t.Helper()
	g, err := gen.Synthesize(gen.WebGoogle, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1 << 20)
	rec.EnableCommits(1<<21, g.M())
	mode := edgedata.ModeAtomic
	a := algorithms.NewWCC()
	_, res, err := algorithms.Run(a, g, core.Options{
		Scheduler: kind, Threads: threads, Mode: mode, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("fixture run did not converge")
	}
	snap := rec.Snapshot(trace.Meta{
		Vertices: g.N(), Edges: g.M(),
		KV: map[string]string{
			"algo":    "wcc",
			"dataset": "web-google",
			"scale":   "1000",
			"seed":    "42",
			"sched":   kind.String(),
			"mode":    mode.String(),
			"threads": fmt.Sprint(threads),
			"eps":     "0.001",
			"source":  "0",
		},
	})
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteBinary(f, snap); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("ndtrace %v: %v\n%s", args, err, sb.String())
	}
	return sb.String()
}

func TestStatsAndCSV(t *testing.T) {
	dir := t.TempDir()
	p := recordFixture(t, dir, "det.ndt", sched.Deterministic, 1)
	out := runCLI(t, "stats", p)
	for _, want := range []string{"algo: wcc", "dataset: web-google", "events:", "commits:", "final-state digest:", "iterations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	csvOut := runCLI(t, "csv", p)
	if !strings.HasPrefix(csvOut, "seq,iteration,worker,vertex,writes,value\n") {
		t.Errorf("csv output lacks header:\n%.120s", csvOut)
	}
}

func TestDiffIdenticalDeterministicRuns(t *testing.T) {
	dir := t.TempDir()
	a := recordFixture(t, dir, "a.ndt", sched.Deterministic, 1)
	b := recordFixture(t, dir, "b.ndt", sched.Deterministic, 1)
	out := runCLI(t, "diff", a, b)
	if !strings.Contains(out, "identical") {
		t.Errorf("deterministic runs should diff identical:\n%s", out)
	}
}

func TestReplayRecordedRun(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		kind    sched.Kind
		threads int
	}{
		{"det.ndt", sched.Deterministic, 1},
		{"nondet.ndt", sched.Nondeterministic, 4},
	} {
		p := recordFixture(t, dir, tc.name, tc.kind, tc.threads)
		out := runCLI(t, "replay", p)
		if !strings.Contains(out, "byte-identical") {
			t.Errorf("%s: replay did not reach the recorded fixed point:\n%s", tc.name, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"diff", "only-one"}, &sb); err == nil {
		t.Error("diff with one file accepted")
	}
	if err := run([]string{"stats", "/nonexistent.ndt"}, &sb); err == nil {
		t.Error("missing file accepted")
	}
}

// A trace file is outside input: provenance naming a source the rebuilt
// graph does not have must make replay fail with an error, not panic in
// the algorithm's Setup.
func TestReplayRejectsSourceOutsideGraph(t *testing.T) {
	g, err := gen.Synthesize(gen.WebGoogle, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, source := range []string{"4000000000", fmt.Sprint(g.N()), "-1"} {
		snap := trace.NewRecorder(0).Snapshot(trace.Meta{
			Vertices: g.N(), Edges: g.M(),
			KV: map[string]string{"algo": "sssp", "dataset": "web-google", "scale": "5000", "seed": "42", "source": source},
		})
		path := filepath.Join(t.TempDir(), "bad-source.ndt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinary(f, snap); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		err = run([]string{"replay", path}, &sb)
		if err == nil || !strings.Contains(err.Error(), "is not a vertex") {
			t.Errorf("source=%s: replay error = %v, want the out-of-range source named", source, err)
		}
	}
}
