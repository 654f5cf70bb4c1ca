package netdist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"slices"

	"ndgraph/internal/fsafe"
)

// ckptFormat is a worker checkpoint: a header naming the job it belongs to
// (FNV-1a hash of the algorithm name, worker id, owned range [lo, hi)) and
// one section, the owned values. fsafe keeps the newest generation as
// ckptName and the previous one as ckptName+".prev" in the worker's
// directory.
var ckptFormat = fsafe.Format{Tag: "NDW2", Header: 4, Sections: 1}

const ckptName = "ckpt"

func (w *worker) ckptHeader() []uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.algo))
	return []uint64{h.Sum64(), uint64(w.id), uint64(w.lo), uint64(w.hi)}
}

// saveCheckpoint writes vals, a snapshot of the owned values, as the
// newest generation.
func (w *worker) saveCheckpoint(vals []uint64) error {
	return ckptFormat.Save(filepath.Join(w.dir, ckptName), w.ckptHeader(), vals)
}

// restoreCheckpoint installs the newest loadable generation's values in the
// kernel and records its name in w.restored. With neither generation
// loadable the worker cold-starts: the boundary repair ripple regenerates
// everything. A checkpoint of another algorithm, worker or range is an
// error.
func (w *worker) restoreCheckpoint() error {
	want := w.ckptHeader()
	gen, err := ckptFormat.Load(filepath.Join(w.dir, ckptName), func(hdr []uint64, s [][]uint64) error {
		if !slices.Equal(hdr, want) {
			return fmt.Errorf("netdist: checkpoint holds algorithm %#x worker %d [%d,%d), want %s (%#x) worker %d [%d,%d)",
				hdr[0], hdr[1], hdr[2], hdr[3], w.algo, want[0], w.id, w.lo, w.hi)
		}
		if len(s[0]) != int(w.hi-w.lo) {
			return fmt.Errorf("netdist: checkpoint holds %d values for a %d-vertex partition: %w", len(s[0]), w.hi-w.lo, fsafe.ErrCorrupt)
		}
		copy(w.kern.vals, s[0])
		return nil
	})
	switch {
	case err == nil:
		w.restored = filepath.Base(gen)
	case errors.Is(err, fsafe.ErrCorrupt), errors.Is(err, fs.ErrNotExist):
		err = nil
	}
	return err
}
