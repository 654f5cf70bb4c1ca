//go:build !race

package async

import (
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/obs"
)

// The race detector's instrumentation allocates, so — as in internal/core —
// the zero-allocation property is asserted in non-race builds only.

// bulkUpdate uses all three bulk accessors, holding both slices at once.
func bulkUpdate(ctx core.VertexView) {
	min := ctx.Vertex()
	in, out := ctx.InEdgeVals(), ctx.OutEdgeVals()
	for _, w := range in {
		if w < min {
			min = w
		}
	}
	for _, w := range out {
		if w < min {
			min = w
		}
	}
	ctx.SetVertex(min)
	ctx.SetOutEdgeVals(min)
}

// A steady-state update through the barrier-free view allocates nothing:
// the bulk slices are the worker's scratch, grown while the first pass over
// the vertices meets the largest degree and reused from then on. Measured
// on the view directly (bind + update) because a whole Run has fixed
// per-call costs (deques, seed claims) that are not the hot path. Both the
// plain path and the observed one (delay clock: per-edge fallback) count.
func TestBulkUpdateSteadyStateDoesNotAllocate(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := algorithms.NoSyncVerdict(algorithms.NewWCC(), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, observed := range []bool{false, true} {
		var o *obs.Observer
		name := "plain"
		if observed {
			o, name = obs.New(obs.Options{}), "observed"
		}
		ns, err := NewNoSync(g, NoSyncOptions{Threads: 1, Mode: edgedata.ModeAtomic, Verdict: &verdict, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		defer ns.Close()
		vw := &ns.views[0]
		vw.plain = !observed
		t.Run("nosync/"+name, func(t *testing.T) {
			pass := func() {
				for v := 0; v < g.N(); v++ {
					vw.Bind(g, uint32(v))
					bulkUpdate(vw)
					// Empty what the update's wakeups enqueued, so queue
					// growth is not charged to the accessors.
					for {
						if _, ok := ns.deques[0].Steal(); !ok {
							break
						}
					}
					ns.state.Reset()
				}
			}
			pass() // warm-up: the scratch grows to the largest degree
			if avg := testing.AllocsPerRun(3, pass); avg > 0 {
				t.Errorf("a pass of %d bulk updates allocates %.1f times in steady state, want 0", g.N(), avg)
			}
		})
	}
}
