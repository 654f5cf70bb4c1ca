package core

import (
	"slices"
	"testing"
	"testing/quick"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// Cross-layer property tests tying together the census, dispatch policies,
// and execution models.

// The potential census can only see MORE conflicts than the observed
// census: the potential replay assumes every pair of same-iteration
// updates overlaps, while in-order execution may let conditional writes
// fizzle. (Both probes here run deterministically, so the comparison is
// exact, not timing-dependent.)
func TestPotentialCensusDominatesObserved(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(60, 300, seed)
		if err != nil {
			return false
		}
		runWith := func(potential bool) (uint64, uint64) {
			e, err := NewEngine(g, Options{
				Scheduler: sched.Deterministic, EnableCensus: true, PotentialCensus: potential,
			})
			if err != nil {
				t.Fatal(err)
			}
			initMinLabel(e)
			res, err := e.Run(minLabelUpdate)
			if err != nil || !res.Converged {
				t.Fatal("run failed")
			}
			return res.RWConflicts, res.WWConflicts
		}
		_, obsWW := runWith(false)
		_, potWW := runWith(true)
		// Write-write conflicts: potential ≥ observed (the central
		// property that justifies probing with the potential census).
		return potWW >= obsWW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Dynamic dispatch preserves correctness for monotone algorithms: final
// min-labels equal the static-dispatch result on random graphs.
func TestDynamicDispatchSameResults(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(80, 400, seed)
		if err != nil {
			return false
		}
		results := make([][]uint64, 2)
		for i, d := range []sched.Dispatch{sched.Static, sched.Dynamic} {
			e, err := NewEngine(g, Options{
				Scheduler: sched.Nondeterministic, Threads: 4,
				Mode: edgedata.ModeAtomic, Dispatch: d, Amplify: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			initMinLabel(e)
			res, err := e.Run(minLabelUpdate)
			if err != nil || !res.Converged {
				return false
			}
			results[i] = append([]uint64(nil), e.Vertices...)
		}
		for v := range results[0] {
			if results[0][v] != results[1][v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// BSP with a gather-scatter (single-writer-per-edge) update is fully
// deterministic even in parallel: reads come from the committed snapshot
// and each edge has exactly one writer, so thread count cannot change any
// value. PageRank-shaped updates satisfy this.
func TestBSPParallelDeterministicForSingleWriterUpdates(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 131)
	if err != nil {
		t.Fatal(err)
	}
	update := func(ctx VertexView) {
		var sum uint64
		for k := 0; k < ctx.InDegree(); k++ {
			sum += ctx.InEdgeVal(k)
		}
		sum++
		old := ctx.Vertex()
		ctx.SetVertex(sum)
		if old != sum && sum < 1000 {
			for k := 0; k < ctx.OutDegree(); k++ {
				ctx.SetOutEdgeVal(k, sum%7)
			}
		}
	}
	var want []uint64
	for _, threads := range []int{1, 2, 8} {
		e, err := NewEngine(g, Options{
			Scheduler: sched.Synchronous, Threads: threads,
			Mode: edgedata.ModeAtomic, MaxIters: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Frontier().ScheduleAll()
		if _, err := e.Run(update); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = append([]uint64(nil), e.Vertices...)
			continue
		}
		for v := range want {
			if e.Vertices[v] != want[v] {
				t.Fatalf("threads=%d: vertex %d = %d, single-thread had %d",
					threads, v, e.Vertices[v], want[v])
			}
		}
	}
}

// Census works identically under all parallel schedulers for the WCC
// pattern: potential conflicts are a property of access patterns plus the
// scheduled sets, and with the same deterministic evolution (same
// converged state), total conflict counts from the deterministic probe
// must be reproducible.
func TestPotentialCensusReproducible(t *testing.T) {
	g, err := gen.RMAT(200, 1200, gen.DefaultRMAT, 132)
	if err != nil {
		t.Fatal(err)
	}
	var firstRW, firstWW uint64
	for i := 0; i < 3; i++ {
		e, err := NewEngine(g, Options{Scheduler: sched.Deterministic, PotentialCensus: true})
		if err != nil {
			t.Fatal(err)
		}
		initMinLabel(e)
		res, err := e.Run(minLabelUpdate)
		if err != nil || !res.Converged {
			t.Fatal("run failed")
		}
		if i == 0 {
			firstRW, firstWW = res.RWConflicts, res.WWConflicts
			continue
		}
		if res.RWConflicts != firstRW || res.WWConflicts != firstWW {
			t.Fatalf("probe run %d: conflicts (%d,%d) != first (%d,%d)",
				i, res.RWConflicts, res.WWConflicts, firstRW, firstWW)
		}
	}
}

// A self-loop's two "sides" belong to the same update, so the census must
// not classify its read+write (or write+write) as a conflict.
func TestCensusIgnoresSelfLoops(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 0}}, graph.Options{NumVertices: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, Options{Scheduler: sched.Deterministic, PotentialCensus: true})
	if err != nil {
		t.Fatal(err)
	}
	initMinLabel(e)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if res.RWConflicts != 0 || res.WWConflicts != 0 {
		t.Fatalf("self-loop recorded conflicts: %+v", res)
	}
}

// The potential census's shadow contexts are invisible to telemetry: a
// deterministic run with PotentialCensus reports, iteration by iteration,
// the edge reads and writes of the same run without it.
func TestPotentialCensusLeavesAccessCountsAlone(t *testing.T) {
	g, err := gen.RMAT(200, 1200, gen.DefaultRMAT, 133)
	if err != nil {
		t.Fatal(err)
	}
	var counts [2][][2]int64
	for i, census := range []bool{false, true} {
		o := obs.New(obs.Options{})
		e := newEngine(t, g, Options{Scheduler: sched.Deterministic, PotentialCensus: census, Observer: o})
		initMinLabel(e)
		if res, err := e.Run(minLabelUpdate); err != nil || !res.Converged {
			t.Fatalf("census=%v: run failed: %v", census, err)
		}
		for _, ev := range o.Events() {
			counts[i] = append(counts[i], [2]int64{ev.EdgeReads, ev.EdgeWrites})
		}
		o.Close()
	}
	if len(counts[0]) < 2 || !slices.Equal(counts[0], counts[1]) {
		t.Fatalf("per-iteration (reads, writes) without census %v, with it %v", counts[0], counts[1])
	}
}
