package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndgraph/internal/gen"
	"ndgraph/internal/loader"
	"ndgraph/internal/trace"
)

func TestRunDatasetWCC(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-algo", "wcc", "-dataset", "web-google", "-scale", "500",
		"-sched", "nondet", "-mode", "atomic", "-threads", "2", "-top", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"algorithm: wcc", "converged: true", "components:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunProbe(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-algo", "coloring", "-dataset", "web-google", "-scale", "500", "-probe"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "NOT ELIGIBLE") {
		t.Fatalf("probe output missing verdict:\n%s", sb.String())
	}
}

func TestRunAdvise(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-algo", "wcc", "-dataset", "web-google", "-scale", "500", "-advise"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"static access profile: WW", "[source: cert]", "[source: probe]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("advise output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "disagree") {
		t.Fatalf("wcc verdicts should agree:\n%s", out)
	}

	sb.Reset()
	if err := run([]string{"-algo", "coloring", "-dataset", "web-google", "-scale", "500", "-advise"}, &sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "NOT ELIGIBLE"); got != 2 {
		t.Fatalf("coloring should be rejected by both sources, got %d rejections:\n%s", got, sb.String())
	}
}

func TestRunPageRankTopAndCensus(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-algo", "pagerank", "-dataset", "web-google", "-scale", "500",
		"-sched", "det", "-eps", "1e-2", "-top", "5", "-census"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "observed conflicts") || !strings.Contains(out, "rank") {
		t.Fatalf("output missing sections:\n%s", out)
	}
}

func TestRunGraphFile(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ring.txt")
	if err := loader.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-algo", "bfs", "-graph", path, "-source", "0", "-top", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "16 vertices") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRunAllAlgorithmsSmoke(t *testing.T) {
	for _, algo := range []string{"pagerank", "wcc", "sssp", "bfs", "spmv", "kcore", "labelprop", "coloring"} {
		var sb strings.Builder
		err := run([]string{"-algo", algo, "-dataset", "web-google", "-scale", "1000", "-sched", "det"}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(sb.String(), "converged: true") {
			t.Fatalf("%s did not converge:\n%s", algo, sb.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"no input":          {"-algo", "wcc"},
		"both inputs":       {"-algo", "wcc", "-graph", "x", "-dataset", "web-google"},
		"bad algo":          {"-algo", "zap", "-dataset", "web-google", "-scale", "1000"},
		"bad dataset":       {"-algo", "wcc", "-dataset", "nope"},
		"bad sched":         {"-algo", "wcc", "-dataset", "web-google", "-scale", "1000", "-sched", "zap"},
		"bad mode":          {"-algo", "wcc", "-dataset", "web-google", "-scale", "1000", "-mode", "zap"},
		"source range":      {"-algo", "bfs", "-dataset", "web-google", "-scale", "1000", "-source", "99999999"},
		"parallel seq mode": {"-algo", "wcc", "-dataset", "web-google", "-scale", "1000", "-sched", "nondet", "-mode", "seq", "-threads", "4"},
	}
	for name, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunTraceAndDynamicDispatch(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.ndt")
	csvPath := filepath.Join(dir, "trace.csv")
	var sb strings.Builder
	err := run([]string{"-algo", "wcc", "-dataset", "web-google", "-scale", "1000",
		"-sched", "nondet", "-mode", "atomic", "-threads", "2",
		"-dispatch", "dynamic", "-trace", tracePath, "-trace-csv", csvPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "trace:") {
		t.Fatalf("output missing trace notice:\n%s", sb.String())
	}
	// -trace writes the NDTR binary container; the payload must be loadable
	// and carry the provenance needed by `ndtrace replay`.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatalf("reading NDTR trace: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("NDTR trace has no events")
	}
	for _, key := range []string{"algo", "dataset", "scale", "seed", "sched", "mode"} {
		if _, ok := tr.Meta.KV[key]; !ok {
			t.Errorf("NDTR trace meta missing provenance key %q", key)
		}
	}
	// -trace-csv keeps the human-readable flat form.
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "seq,iteration,worker,vertex,writes") {
		t.Fatalf("trace CSV header missing:\n%.100s", data)
	}
}

func TestRunBadDispatch(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-algo", "wcc", "-dataset", "web-google", "-scale", "1000",
		"-dispatch", "guided"}, &sb)
	if err == nil {
		t.Fatal("unknown dispatch accepted")
	}
}
