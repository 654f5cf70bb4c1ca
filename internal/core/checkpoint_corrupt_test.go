package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ndgraph/internal/fsafe"
	"ndgraph/internal/sched"
)

// A crash mid-checkpoint-write leaves a prefix of the file on disk (the
// atomic rename normally prevents this, but a torn copy can still arrive
// through an interrupted transfer or a bad disk). Restore must classify
// every truncation point as fsafe.ErrCorrupt — never panic, never load garbage —
// so a supervisor can distinguish "fall back to the previous generation"
// from "this checkpoint belongs to another graph".
func TestRestoreTruncationAlwaysErrCorrupt(t *testing.T) {
	g := ringGraph(t, 24)
	path := writeCheckpointFile(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every interesting prefix length: empty file, mid-header, each section
	// boundary region, and one byte short of complete.
	cuts := []int{0, 1, 7, 8, 47, 48, 49, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(data) {
			continue
		}
		torn := filepath.Join(t.TempDir(), "torn.ndck")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, g, Options{})
		_, err := e.RestoreCheckpoint(torn)
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(data))
		}
		if !errors.Is(err, fsafe.ErrCorrupt) {
			t.Fatalf("truncation at %d/%d bytes: error %v does not wrap fsafe.ErrCorrupt", cut, len(data), err)
		}
	}
}

// Bit rot anywhere in the body must surface fsafe.ErrCorrupt via the checksum.
func TestRestoreBitFlipIsErrCorrupt(t *testing.T) {
	g := ringGraph(t, 24)
	path := writeCheckpointFile(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{8, len(data) / 3, len(data) - 6} {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x40
		bad := filepath.Join(t.TempDir(), "flip.ndck")
		if err := os.WriteFile(bad, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, g, Options{})
		if _, err := e.RestoreCheckpoint(bad); !errors.Is(err, fsafe.ErrCorrupt) {
			t.Fatalf("bit flip at %d: error %v does not wrap fsafe.ErrCorrupt", pos, err)
		}
	}
}

// Errors that fallback cannot repair must NOT wrap fsafe.ErrCorrupt: a missing
// file and a structurally valid checkpoint for a different graph both mean
// "no amount of retrying older generations helps".
func TestRestoreNonCorruptErrorsAreNotErrCorrupt(t *testing.T) {
	e := newEngine(t, ringGraph(t, 8), Options{})
	if _, err := e.RestoreCheckpoint(filepath.Join(t.TempDir(), "nope.ndck")); err == nil || errors.Is(err, fsafe.ErrCorrupt) {
		t.Fatalf("missing file: got %v, want a non-fsafe.ErrCorrupt error", err)
	}
	path := writeCheckpointFile(t, ringGraph(t, 24))
	other := newEngine(t, ringGraph(t, 25), Options{})
	if _, err := other.RestoreCheckpoint(path); err == nil || errors.Is(err, fsafe.ErrCorrupt) {
		t.Fatalf("wrong graph: got %v, want a non-fsafe.ErrCorrupt error", err)
	}
}

// RestoreCheckpoint applies the recovery discipline itself: when the
// newest generation is torn it loads the previous good one. The failed
// attempt leaves the engine untouched, so the fallback restore then resumes
// and finishes byte-identically to an uninterrupted run.
func TestRestoreFallsBackToPreviousGoodCheckpoint(t *testing.T) {
	g := chainGraph(t, 40)
	newest := filepath.Join(t.TempDir(), "ckpt")

	// Reference: uninterrupted run.
	ref := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initReversedLabels(ref)
	if _, err := ref.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}

	// Produce two generations, then let the newest crash mid-write: a torn
	// prefix of itself.
	ck := newEngine(t, g, Options{Scheduler: sched.Deterministic, CheckpointEvery: 5, CheckpointPath: newest})
	initReversedLabels(ck)
	if _, err := ck.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	newestIter, err := newEngine(t, g, Options{}).RestoreCheckpoint(newest)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	e := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initReversedLabels(e)
	iter, err := e.RestoreCheckpoint(newest)
	if err != nil {
		t.Fatalf("fallback to previous generation failed: %v", err)
	}
	if iter != newestIter-5 {
		t.Fatalf("resumed at iteration %d, want the previous generation's %d", iter, newestIter-5)
	}
	if _, err := e.Run(minLabelUpdate); err != nil {
		t.Fatal(err)
	}
	for v := range ref.Vertices {
		if e.Vertices[v] != ref.Vertices[v] {
			t.Fatalf("vertex %d = %d after fallback resume, want %d", v, e.Vertices[v], ref.Vertices[v])
		}
	}
}
