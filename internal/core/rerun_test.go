package core_test

import (
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/sched"
)

// A ModeAtomic store fills and snapshots its words with plain stores and
// loads, which is sound only at a barrier. Two workers write the edges with
// atomic stores; then Reset and Setup refill every word, and the Synchronous
// scheduler snapshots them before each iteration. Under -race this pins
// that the pool's barrier orders those plain accesses after the workers'
// atomic ones; both runs must reach Dijkstra's distances.
func TestAtomicRerunAfterReset(t *testing.T) {
	g, err := gen.RMAT(512, 4096, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := algorithms.NewSSSP(g, 0, 7)
	want := algorithms.ReferenceSSSP(g, 0, s.Weights)
	for _, sc := range []sched.Kind{sched.Nondeterministic, sched.Synchronous} {
		e, err := core.NewEngine(g, core.Options{Scheduler: sc, Threads: 2, Mode: edgedata.ModeAtomic})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			if run > 0 {
				e.Reset()
			}
			s.Setup(e)
			if res, err := e.Run(s.Update); err != nil || !res.Converged {
				t.Fatalf("%v run %d: %v (converged=%v)", sc, run, err, res.Converged)
			}
			for v, got := range s.Distances(e) {
				if got != want[v] {
					t.Fatalf("%v run %d: dist[%d] = %v, want %v", sc, run, v, got, want[v])
				}
			}
		}
		e.Close()
	}
}
