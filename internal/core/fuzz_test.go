package core

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/sched"
)

// fuzzCkptGraph returns the fixed graph every checkpoint fuzz input is
// restored against. It must be deterministic: the seed corpus contains
// checkpoints saved for exactly this graph, and the header check
// (n, m vs the engine's graph) is part of the surface under test.
func fuzzCkptGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := gen.RMAT(48, 200, gen.DefaultRMAT, 23)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// fuzzCkptUpdate is a monotone min-label update that keeps every vertex
// scheduled, so checkpoints taken mid-run always carry a non-empty
// frontier and a resumed Run exercises the full dispatch path.
func fuzzCkptUpdate(ctx VertexView) {
	w := ctx.Vertex()
	for k := 0; k < ctx.InDegree(); k++ {
		if v := ctx.InEdgeVal(k); v < w {
			w = v
		}
	}
	ctx.SetVertex(w)
	for k := 0; k < ctx.OutDegree(); k++ {
		if w < ctx.OutEdgeVal(k) {
			ctx.SetOutEdgeVal(k, w)
		}
	}
	ctx.ScheduleSelf()
}

// validCheckpointBytes runs the engine long enough to write one real
// checkpoint and returns the file's bytes — the structural seed the fuzzer
// mutates from.
func validCheckpointBytes(tb testing.TB, g *graph.Graph) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.ndck")
	e, err := NewEngine(g, Options{Scheduler: sched.Deterministic, CheckpointEvery: 1, CheckpointPath: path, MaxIters: 3})
	if err != nil {
		tb.Fatal(err)
	}
	for v := range e.Vertices {
		e.Vertices[v] = uint64(v)
	}
	e.Edges.Fill(^uint64(0))
	e.Frontier().ScheduleAll()
	if _, err := e.Run(fuzzCkptUpdate); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzCheckpointRestore feeds arbitrary bytes to RestoreCheckpoint: the
// contract is error-or-success, never a panic — including inputs whose
// CRC32 is valid over corrupt contents (e.g. out-of-range frontier
// members) — and any accepted state must support a bounded Run.
func FuzzCheckpointRestore(f *testing.F) {
	g := fuzzCkptGraph(f)
	valid := validCheckpointBytes(f, g)
	f.Add(valid)
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0xff
	f.Add(crcFlip) // corrupted CRC trailer: must error
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:6*8+4]) // header + trailer only, no body
	f.Add([]byte("NDCKnot-a-checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ndck")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, Options{Scheduler: sched.Deterministic})
		if err != nil {
			t.Fatal(err)
		}
		iter, err := e.RestoreCheckpoint(path)
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		if iter < 0 {
			t.Fatalf("restored negative iteration %d", iter)
		}
		// Whatever state was accepted must be consistent enough to run a
		// couple of iterations (MaxIters is an absolute cap, so this
		// executes at most 2 regardless of the restored counter).
		e.loop.MaxIters = iter + 2
		if _, err := e.Run(fuzzCkptUpdate); err != nil {
			t.Fatalf("run after accepted restore: %v", err)
		}
	})
}

// TestRestoreCheckpointRejectsOutOfRangeFrontier pins the exact hazard the
// fuzz target guards: a checkpoint whose CRC is internally consistent but
// whose frontier names a vertex the graph does not have must be rejected
// (it previously panicked inside the frontier bitset).
func TestRestoreCheckpointRejectsOutOfRangeFrontier(t *testing.T) {
	g := fuzzCkptGraph(t)
	data := validCheckpointBytes(t, g)
	// Layout: 6×uint64 header, n vertex words, m edge words, uint64
	// member count, count×uint32 members, uint32 CRC.
	countOff := 6*8 + g.N()*8 + g.M()*8
	if count := binary.LittleEndian.Uint64(data[countOff:]); count == 0 {
		t.Fatal("seed checkpoint has empty frontier; cannot exercise member bounds")
	}
	bad := append([]byte(nil), data...)
	// Overwrite the first member with an out-of-range ID and re-stamp the
	// CRC so only the member bounds check can reject it.
	binary.LittleEndian.PutUint32(bad[countOff+8:], uint32(g.N()))
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	path := filepath.Join(t.TempDir(), "bad.ndck")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, Options{Scheduler: sched.Deterministic})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RestoreCheckpoint(path); err == nil {
		t.Fatal("out-of-range frontier member restored successfully")
	}
}
