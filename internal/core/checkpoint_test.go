package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndgraph/internal/fault"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/sched"
)

// ringGraph gives minLabel a long convergence run (the min label travels
// one hop per iteration around the directed cycle), leaving plenty of
// iteration boundaries for checkpoints and crashes.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := gen.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chainGraph builds a directed path 0→1→…→n-1. Paired with
// initReversedLabels it gives the slowest possible min-label run under the
// Deterministic scheduler: no wrap-around edge exists to hand the minimum
// to vertex 0, so it can only travel backwards, one hop per iteration.
func chainGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := gen.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// initReversedLabels seeds labels against the processing order (vertex i
// gets label n-1-i), so the minimum sits at the last-processed vertex and
// sequential ascending Gauss–Seidel on a chain needs ~n iterations instead
// of one pass — enough runway for checkpoints, crashes, and cancellations
// mid-run.
func initReversedLabels(e *Engine) {
	n := len(e.Vertices)
	for i := range e.Vertices {
		e.Vertices[i] = uint64(n - 1 - i)
	}
	e.Edges.Fill(^uint64(0))
	e.Frontier().ScheduleAll()
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	g := chainGraph(t, 40)
	ckpt := filepath.Join(t.TempDir(), "state.ndck")

	// Reference: uninterrupted deterministic run.
	ref := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initReversedLabels(ref)
	refRes, err := ref.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Converged {
		t.Fatal("reference did not converge")
	}
	if refRes.Iterations < 10 {
		t.Fatalf("reference converged in %d iterations; too short to exercise crash at 7", refRes.Iterations)
	}

	// Crashing run: checkpoint every iteration, injected crash at 7.
	inj, err := fault.NewInjector(fault.Plan{CrashIter: 7})
	if err != nil {
		t.Fatal(err)
	}
	crash := newEngine(t, g, Options{
		Scheduler:       sched.Deterministic,
		Inject:          inj,
		CheckpointEvery: 1,
		CheckpointPath:  ckpt,
	})
	initReversedLabels(crash)
	_, err = crash.Run(minLabelUpdate)
	if !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("crash run returned %v, want fault.ErrCrash", err)
	}

	// Resume: fresh engine, restore, run to completion. No re-Setup — the
	// checkpoint carries the full state.
	resumed := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	iter, err := resumed.RestoreCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// The crash at boundary 7 precedes that iteration's checkpoint, so the
	// newest surviving checkpoint is iteration 6's.
	if iter != 6 {
		t.Fatalf("resumed at iteration %d, want 6", iter)
	}
	res, err := resumed.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("resumed run did not converge")
	}

	// Byte-identical final state and matching counters.
	if res.Iterations != refRes.Iterations || res.Updates != refRes.Updates {
		t.Fatalf("resumed result (%d iters, %d updates) != uninterrupted (%d iters, %d updates)",
			res.Iterations, res.Updates, refRes.Iterations, refRes.Updates)
	}
	for v := range ref.Vertices {
		if resumed.Vertices[v] != ref.Vertices[v] {
			t.Fatalf("vertex %d: resumed %d, reference %d", v, resumed.Vertices[v], ref.Vertices[v])
		}
	}
	refEdges, gotEdges := ref.Edges.Snapshot(), resumed.Edges.Snapshot()
	for e := range refEdges {
		if gotEdges[e] != refEdges[e] {
			t.Fatalf("edge %d: resumed %d, reference %d", e, gotEdges[e], refEdges[e])
		}
	}
}

// writeCheckpointFile runs a short computation with checkpointing enabled
// and returns the checkpoint path. The previous generation is removed, so
// damage to the returned file cannot be repaired by falling back to it.
func writeCheckpointFile(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.ndck")
	// CheckpointEvery 1, not 2: iteration 0 is never checkpointed, so the
	// first write lands at iteration 1 — early enough for short fixtures.
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, CheckpointEvery: 1, CheckpointPath: path})
	initMinLabel(e)
	if _, err := e.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if err := os.Remove(path + ".prev"); err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return path
}

func TestRestoreRejectsCorruptedCheckpoint(t *testing.T) {
	g := ringGraph(t, 24)
	path := writeCheckpointFile(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, Options{})
	_, err = e.RestoreCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted checkpoint: got %v, want checksum mismatch", err)
	}
}

func TestRestoreRejectsTruncatedCheckpoint(t *testing.T) {
	g := ringGraph(t, 24)
	path := writeCheckpointFile(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, Options{})
	if _, err := e.RestoreCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestRestoreRejectsWrongGraph(t *testing.T) {
	path := writeCheckpointFile(t, ringGraph(t, 24))
	other := newEngine(t, ringGraph(t, 25), Options{})
	_, err := other.RestoreCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "checkpoint is for") {
		t.Fatalf("wrong-graph checkpoint: got %v, want graph-shape mismatch", err)
	}
}

func TestRestoreRejectsMissingFile(t *testing.T) {
	e := newEngine(t, ringGraph(t, 8), Options{})
	if _, err := e.RestoreCheckpoint(filepath.Join(t.TempDir(), "nope.ndck")); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

func TestCheckpointLeavesNoTempFiles(t *testing.T) {
	g := ringGraph(t, 24)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ndck")
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, CheckpointEvery: 1, CheckpointPath: path})
	initMinLabel(e)
	if _, err := e.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, en := range entries {
		names = append(names, en.Name())
	}
	if len(names) == 0 || names[0] != "state.ndck" || len(names) > 2 || len(names) == 2 && names[1] != "state.ndck.prev" {
		t.Fatalf("checkpoint dir holds %v, want only state.ndck and its previous generation", names)
	}
}

// Iteration 0 — the state before any update has run — must never be
// checkpointed: the file would hold the initial state and buy nothing over
// re-running Setup, and under CheckpointEvery=k it would burn a write on a
// boundary that carries no progress.
func TestCheckpointSkipsIterationZero(t *testing.T) {
	g := ringGraph(t, 8)
	path := filepath.Join(t.TempDir(), "state.ndck")
	// A converged frontier ends the run at iteration boundary 0 with the
	// checkpoint condition 0 % 1 == 0 — the old code wrote a file here.
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic, CheckpointEvery: 1, CheckpointPath: path})
	// No vertices scheduled: Run exits at the first barrier, iteration 0.
	if _, err := e.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("iteration 0 wrote a checkpoint (stat err %v), want none", err)
	}
}

// After RestoreCheckpoint, the first barrier the resumed run reaches is the
// restore point itself (res.Iterations == startIter), and startIter is a
// multiple of CheckpointEvery by construction. Re-writing there would clobber
// the good checkpoint with one recording zero new progress — and worse, a
// crash during that redundant write could destroy the only recovery point.
func TestRestoredRunDoesNotRewriteRestorePoint(t *testing.T) {
	g := chainGraph(t, 40)
	ckpt := filepath.Join(t.TempDir(), "state.ndck")

	// Reference: uninterrupted run for the final state.
	ref := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initReversedLabels(ref)
	if _, err := ref.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}

	// Crash at iteration 7 with checkpoints every 2: files at 2, 4, 6.
	inj, err := fault.NewInjector(fault.Plan{CrashIter: 7})
	if err != nil {
		t.Fatal(err)
	}
	crash := newEngine(t, g, Options{
		Scheduler:       sched.Deterministic,
		Inject:          inj,
		CheckpointEvery: 2,
		CheckpointPath:  ckpt,
	})
	initReversedLabels(crash)
	if _, err := crash.Run(minLabelUpdate); !errors.Is(err, fault.ErrCrash) {
		t.Fatalf("crash run returned %v, want fault.ErrCrash", err)
	}

	resumed := newEngine(t, g, Options{
		Scheduler:       sched.Deterministic,
		CheckpointEvery: 2,
		CheckpointPath:  ckpt,
	})
	iter, err := resumed.RestoreCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 6 {
		t.Fatalf("resumed at iteration %d, want 6", iter)
	}

	// Delete the file, then run exactly one iteration past the restore
	// point. The first barrier is iteration 6 == startIter: no write may
	// happen there. (Deleting rather than chmod-ing: the tests run as root,
	// where permission bits do not block writes.)
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	resumed.loop.MaxIters = 7
	if _, err := resumed.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("first post-restore barrier rewrote the checkpoint (stat err %v), want no file", err)
	}

	// The run must still checkpoint *new* progress and converge to the
	// reference state once the iteration cap is lifted.
	resumed.loop.MaxIters = DefaultMaxIters
	res, err := resumed.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("resumed run did not converge")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written for post-restore progress: %v", err)
	}
	for v := range ref.Vertices {
		if resumed.Vertices[v] != ref.Vertices[v] {
			t.Fatalf("vertex %d: resumed %d, reference %d", v, resumed.Vertices[v], ref.Vertices[v])
		}
	}
}
