package core

import (
	"fmt"
	"math"

	"ndgraph/internal/fsafe"
)

// ckptFormat is the engine checkpoint: header (iteration, update count,
// n, m) and three sections (vertex words, edge words, frontier members).
// fsafe keeps two generations and verifies the CRC32 on load, so a crash
// mid-checkpoint leaves a loadable file and a torn one is never loaded.
var ckptFormat = fsafe.Format{Tag: "NDC2", Header: 4, Sections: 3}

// saveCheckpoint writes the engine's state at an iteration boundary. Called
// between iterations only (no workers running), so a plain snapshot into the
// engine's shadow is safe. When a fault injector is installed, the snapshot
// bypasses it, so the checkpoint records the true committed words.
func (e *Engine) saveCheckpoint(path string, iter int, updates int64) error {
	members := e.front.Members()
	front := make([]uint64, len(members))
	for i, v := range members {
		front[i] = uint64(v)
	}
	hdr := []uint64{uint64(iter), uint64(updates), uint64(e.g.N()), uint64(e.g.M())}
	e.shadow = e.Edges.SnapshotInto(e.shadow)
	return ckptFormat.Save(path, hdr, e.Vertices, e.shadow, front)
}

// RestoreCheckpoint loads a checkpoint written during an earlier run on the
// same graph and installs it as this engine's state: vertex words, edge
// words, the scheduled set, and the resume point (iteration and update
// counters). A following Run continues from the checkpointed iteration;
// under a deterministic scheduler the resumed run's final state is
// byte-identical to an uninterrupted run's. When path is missing or fails
// validation (errors.Is(err, fsafe.ErrCorrupt)), the previous generation
// path.prev is loaded instead; a checkpoint for another graph is an error
// either way, and the engine is untouched by every failed attempt. It
// returns the iteration the engine will resume at.
func (e *Engine) RestoreCheckpoint(path string) (int, error) {
	if e.ns != nil {
		return 0, fmt.Errorf("core: the nosync scheduler has no iteration to resume at and cannot honour RestoreCheckpoint")
	}
	n, m := e.g.N(), e.g.M()
	iter := 0
	_, err := ckptFormat.Load(path, func(hdr []uint64, s [][]uint64) error {
		if hdr[2] != uint64(n) || hdr[3] != uint64(m) {
			return fmt.Errorf("checkpoint is for a %d-vertex/%d-edge graph, engine holds %d/%d", hdr[2], hdr[3], n, m)
		}
		if hdr[0] > math.MaxInt32 || hdr[1] > math.MaxInt64 {
			return fmt.Errorf("checkpoint resumes at iteration %d after %d updates: %w", hdr[0], hdr[1], fsafe.ErrCorrupt)
		}
		vertices, edges, front := s[0], s[1], s[2]
		if len(vertices) != n || len(edges) != m || len(front) > n {
			return fmt.Errorf("checkpoint holds %d vertices, %d edges, %d frontier members for a %d/%d graph: %w",
				len(vertices), len(edges), len(front), n, m, fsafe.ErrCorrupt)
		}
		// Bounds-check each member: LoadCurrent sets frontier bits without
		// validation, so an out-of-range ID — reachable via a file whose
		// CRC is valid over corrupt contents — would panic the bitset
		// instead of returning an error.
		members := make([]int, len(front))
		for i, v := range front {
			if v >= uint64(n) {
				return fmt.Errorf("checkpoint frontier member %d exceeds %d vertices: %w", v, n, fsafe.ErrCorrupt)
			}
			members[i] = int(v)
		}
		copy(e.Vertices, vertices)
		for i, w := range edges {
			e.Edges.Store(uint32(i), w)
		}
		e.front.LoadCurrent(members)
		iter = int(hdr[0])
		e.startIter, e.startUpdates = iter, int64(hdr[1])
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return iter, nil
}
