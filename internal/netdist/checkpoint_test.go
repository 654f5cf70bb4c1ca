package netdist

import (
	"errors"
	"testing"

	"ndgraph/internal/fsafe"
)

// A checkpoint of another algorithm, worker or range is a hard error: it
// does not wrap fsafe.ErrCorrupt, so neither the previous generation nor a
// cold start stands in for it.
func TestCheckpointIdentityMismatchIsHardError(t *testing.T) {
	dir := t.TempDir()
	saved := &worker{algo: "wcc", id: 0, lo: 0, hi: 10, dir: dir}
	if err := saved.saveCheckpoint(make([]uint64, 10)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*worker{
		{algo: "sssp", id: 0, lo: 0, hi: 10, dir: dir},
		{algo: "wcc", id: 1, lo: 0, hi: 10, dir: dir},
		{algo: "wcc", id: 0, lo: 0, hi: 9, dir: dir},
	} {
		if err := w.restoreCheckpoint(); err == nil || errors.Is(err, fsafe.ErrCorrupt) {
			t.Errorf("%s worker %d [%d,%d): err = %v, want a hard mismatch error", w.algo, w.id, w.lo, w.hi, err)
		}
	}
}
