package main

import (
	"strings"
	"testing"
)

func TestParseHelpers(t *testing.T) {
	ints, err := parseInts(" 1, 2,4 ")
	if err != nil || len(ints) != 3 || ints[2] != 4 {
		t.Fatalf("parseInts = %v, %v", ints, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("parseInts accepted garbage")
	}
	floats, err := parseFloats("1e-1, 0.5")
	if err != nil || len(floats) != 2 || floats[0] != 0.1 {
		t.Fatalf("parseFloats = %v, %v", floats, err)
	}
	if _, err := parseFloats("0.1,y"); err == nil {
		t.Error("parseFloats accepted garbage")
	}
}

func TestExpListFlag(t *testing.T) {
	var e expList
	if err := e.Set("table1, fig3"); err != nil {
		t.Fatal(err)
	}
	if err := e.Set("topk"); err != nil {
		t.Fatal(err)
	}
	if len(e) != 3 || e[0] != "table1" || e[2] != "topk" {
		t.Fatalf("expList = %v", e)
	}
	if e.String() != "table1,fig3,topk" {
		t.Fatalf("String = %q", e.String())
	}
}

func TestRunTable1(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "table1", "-scale", "1000"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table I", "web-berkstan", "cage15"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunConflicts(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "conflicts", "-scale", "1000"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "eligible (Thm 2)") || !strings.Contains(out, "not eligible") {
		t.Fatalf("census output missing verdicts:\n%s", out)
	}
}

func TestRunVarianceSmall(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "variance", "-scale", "1000", "-runs", "2", "-eps", "1e-1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "Table III") {
		t.Fatalf("variance output:\n%s", out)
	}
	if !strings.Contains(out, "DE vs. DE") || !strings.Contains(out, "8NE vs. 16NE") {
		t.Fatalf("variance rows missing:\n%s", out)
	}
}

func TestRunFig3Tiny(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "fig3", "-scale", "1000", "-threads", "2", "-no-aligned"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig. 3") || !strings.Contains(out, "NE-lock") {
		t.Fatalf("fig3 output:\n%s", out)
	}
	if strings.Contains(out, "NE-arch") {
		t.Fatalf("-no-aligned did not drop NE-arch:\n%s", out)
	}
}

func TestRunBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-threads", "a,b"}, &sb); err == nil {
		t.Error("bad threads accepted")
	}
	if err := run([]string{"-eps", "zap"}, &sb); err == nil {
		t.Error("bad eps accepted")
	}
	if err := run([]string{"-exp", "table1,nope", "-scale", "1000"}, &sb); err == nil || !strings.Contains(err.Error(), `unknown study "nope"`) {
		t.Errorf("unknown study: err = %v", err)
	}
	if sb.Len() != 0 {
		t.Errorf("a refused invocation ran studies:\n%s", sb.String())
	}
}

// Smoke two extension studies at minimal scale, in registry order.
func TestRunExtensionExperiments(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "topk", "-exp", "iters", "-scale", "1000", "-runs", "2", "-eps", "1e-1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Index(out, "## iters") > strings.Index(out, "## topk") {
		t.Fatalf("studies not in registry order:\n%s", out)
	}
	for _, want := range []string{"Iterations to convergence", "Top-K rank agreement"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestRunAblate(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "ablate", "-scale", "1000", "-runs", "2", "-eps", "1e-1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Ablations", "race amplifier", "Fig. 1 system model"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	if !strings.Contains(out, "true") {
		t.Fatal("no identical-results confirmations in output")
	}
}
