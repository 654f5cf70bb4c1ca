package hybrid

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/obs"
	"ndgraph/internal/trace"
)

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, 1); err == nil {
		t.Error("nil graph accepted")
	}
	g, _ := gen.Ring(4)
	e, err := NewEngine(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(context.Background(), algorithms.Kernel{}); err == nil {
		t.Error("empty Kernel accepted")
	}
}

func TestDirectionString(t *testing.T) {
	if Push.String() != "push" || Pull.String() != "pull" {
		t.Fatal("Direction.String mismatch")
	}
}

// The Beamer policy must flip exactly at its threshold boundaries, with
// hysteresis from the previous direction.
func TestBeamerPolicyThresholdBoundary(t *testing.T) {
	p := BeamerPolicy(14, 24)
	base := Stats{N: 2400, M: 14000, RemainingInDeg: 14000, BottomUp: true}
	// Pushing: switch to pull strictly above the pull-sweep cost estimate
	// (RemainingInDeg+N)/alpha = (14000+2400)/14 = 1171.
	s := base
	s.Growing = true
	s.Prev, s.FrontierOutDeg = Push, 1171
	if got := p(s); got != Push {
		t.Fatalf("at boundary (1171): %v, want push", got)
	}
	s.FrontierOutDeg = 1172
	if got := p(s); got != Pull {
		t.Fatalf("above boundary (1172): %v, want pull", got)
	}
	// A full-gather kernel (no FirstOfferWins) never pulls, however far
	// past the threshold the frontier grows.
	s.BottomUp = false
	s.FrontierOutDeg = int64(s.M)
	if got := p(s); got != Push {
		t.Fatalf("full-gather kernel above threshold: %v, want push", got)
	}
	s.BottomUp = true
	// A shrinking frontier never switches to pull, whatever its degree.
	s.Growing = false
	if got := p(s); got != Push {
		t.Fatalf("shrinking frontier above boundary: %v, want push", got)
	}
	// Pulling: return to push strictly below N/beta = 100.
	s = base
	s.Prev, s.FrontierSize = Pull, 100
	if got := p(s); got != Pull {
		t.Fatalf("at boundary (100): %v, want pull", got)
	}
	s.FrontierSize = 99
	if got := p(s); got != Push {
		t.Fatalf("below boundary (99): %v, want push", got)
	}
	// Hysteresis: identical stats, different previous direction, can give
	// different answers (the dead band between the two thresholds).
	mid := Stats{N: 2400, M: 14000, RemainingInDeg: 14000, FrontierOutDeg: 500, FrontierSize: 500, Growing: true}
	mid.Prev = Push
	inPush := p(mid)
	mid.Prev = Pull
	inPull := p(mid)
	if inPush != Push || inPull != Pull {
		t.Fatalf("dead band not sticky: from push %v, from pull %v", inPush, inPull)
	}
}

func forced(d Direction) Policy { return func(Stats) Direction { return d } }

func alternating() Policy {
	return func(s Stats) Direction { return Direction(s.Iter % 2) }
}

// All-push, all-pull, and alternating forced policies must all converge to
// the reference fixed point and record exactly the forced direction
// sequence — the mid-run switch loses nothing.
func TestForcedDirectionSequences(t *testing.T) {
	g, err := gen.RMAT(240, 1500, gen.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	want := algorithms.ReferenceWCC(u)
	cases := []struct {
		name   string
		policy Policy
		check  func(t *testing.T, res Result)
	}{
		{"all-push", forced(Push), func(t *testing.T, res Result) {
			if got := res.SwitchTrace(); strings.ContainsRune(got, 'L') {
				t.Fatalf("forced push ran pull: %s", got)
			}
			if res.Switches != 0 {
				t.Fatalf("Switches = %d, want 0", res.Switches)
			}
		}},
		{"all-pull", forced(Pull), func(t *testing.T, res Result) {
			if got := res.SwitchTrace(); strings.ContainsRune(got, 'P') {
				t.Fatalf("forced pull ran push: %s", got)
			}
			if res.Switches != 0 {
				t.Fatalf("Switches = %d, want 0", res.Switches)
			}
		}},
		{"alternating", alternating(), func(t *testing.T, res Result) {
			got := res.SwitchTrace()
			for i := range got {
				want := byte('P')
				if i%2 == 1 {
					want = 'L'
				}
				if got[i] != want {
					t.Fatalf("iteration %d ran %c, want %c (trace %s)", i, got[i], want, got)
				}
			}
			if res.Switches != len(got)-1 {
				t.Fatalf("Switches = %d, want %d", res.Switches, len(got)-1)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(u, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.Policy = tc.policy
			res, err := e.Run(context.Background(), algorithms.WCCKernel())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			for v := range want {
				if uint32(e.Vertices[v]) != want[v] {
					t.Fatalf("vertex %d: label %d, want %d", v, e.Vertices[v], want[v])
				}
			}
			tc.check(t, res)
		})
	}
}

// WCC is a full-gather kernel (offers differ per source, so the pull
// sweep has no early exit), and a full gather measures slower than push
// at every frontier density — the default policy must keep the whole run
// in push even though S_0 = V maximizes frontier out-degree, and land on
// the exact reference fixed point.
func TestDefaultPolicyWCCStaysPush(t *testing.T) {
	g, err := gen.RMAT(400, 3000, gen.DefaultRMAT, 21)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	want := algorithms.ReferenceWCC(u)
	e, err := NewEngine(u, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(context.Background(), algorithms.WCCKernel())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for i, d := range res.Directions {
		if d != Push {
			t.Fatalf("iteration %d chose %v, want push (trace %s)", i, d, res.SwitchTrace())
		}
	}
	if res.Switches != 0 {
		t.Fatalf("Switches = %d, want 0", res.Switches)
	}
	for v := range want {
		if uint32(e.Vertices[v]) != want[v] {
			t.Fatalf("vertex %d: label %d, want %d", v, e.Vertices[v], want[v])
		}
	}
}

// BFS from one source starts maximally sparse: the default policy must
// open with push, and the distances must match the reference exactly in
// every direction regime.
func TestBFSAgainstReference(t *testing.T) {
	g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 33)
	if err != nil {
		t.Fatal(err)
	}
	bfs := algorithms.NewBFS(g, 0)
	want := algorithms.ReferenceSSSP(g, 0, bfs.Weights)
	for _, tc := range []struct {
		name   string
		policy Policy
	}{{"beamer", nil}, {"all-pull", forced(Pull)}, {"alternating", alternating()}} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.Policy = tc.policy
			res, err := e.Run(context.Background(), algorithms.BFSKernel(0))
			if err != nil || !res.Converged {
				t.Fatalf("run: %v (converged=%v)", err, res.Converged)
			}
			if tc.policy == nil {
				got := res.SwitchTrace()
				if res.Directions[0] != Push {
					t.Fatalf("single-seed BFS opened with %v, want push (trace %s)", res.Directions[0], got)
				}
				// BFS is a bottom-up kernel, so once the frontier engulfs
				// the RMAT hubs the Beamer threshold must actually fire.
				if !strings.ContainsRune(got, 'L') {
					t.Fatalf("default policy never pulled (trace %s)", got)
				}
			}
			for v := range want {
				if got := edgedata.ToFloat64(e.Vertices[v]); got != want[v] {
					t.Fatalf("vertex %d: dist %v, want %v", v, got, want[v])
				}
			}
		})
	}
}

// SSSP with randomized weights must match the reference through direction
// switches too — the canonical edge index hands pull the same weight push
// would read.
func TestSSSPAgainstReference(t *testing.T) {
	g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 55)
	if err != nil {
		t.Fatal(err)
	}
	sssp := algorithms.NewSSSP(g, 0, 99)
	want := algorithms.ReferenceSSSP(g, 0, sssp.Weights)
	e, err := NewEngine(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Policy = alternating()
	res, err := e.Run(context.Background(), algorithms.SSSPKernel(0, sssp.Weights))
	if err != nil || !res.Converged {
		t.Fatalf("run: %v (converged=%v)", err, res.Converged)
	}
	for v := range want {
		if got := edgedata.ToFloat64(e.Vertices[v]); got != want[v] {
			t.Fatalf("vertex %d: dist %v, want %v", v, got, want[v])
		}
	}
}

// Each iteration's telemetry event carries the direction it executed
// with, matching the recorded direction sequence one-to-one.
func TestObsEventsTagDirection(t *testing.T) {
	g, err := gen.RMAT(240, 1500, gen.DefaultRMAT, 11)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	e, err := NewEngine(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	o := obs.New(obs.Options{RingSize: 256})
	defer o.Close()
	e.Observe(o)
	e.Policy = alternating()
	res, err := e.Run(context.Background(), algorithms.WCCKernel())
	if err != nil {
		t.Fatal(err)
	}
	evs := o.Events()
	if len(evs) != res.Iterations {
		t.Fatalf("%d events for %d iterations", len(evs), res.Iterations)
	}
	for i, ev := range evs {
		if ev.Engine != obs.EngineHybrid {
			t.Fatalf("event %d engine %v", i, ev.Engine)
		}
		if ev.Direction != res.Directions[i].String() {
			t.Fatalf("event %d direction %q, want %q", i, ev.Direction, res.Directions[i])
		}
	}
}

// An event's Updates counts sources with at least one winning push, not
// every relaxed source: a source whose pushes all lose changed nothing. On
// a 10-vertex chain BFS the frontier always holds one vertex; every
// iteration but the last wins exactly one push, and the final iteration
// (the chain's sink, no out-edges) wins none.
func TestObsCountsWinningSourcesOnly(t *testing.T) {
	const n = 10
	g, err := gen.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	o := obs.New(obs.Options{RingSize: 64})
	defer o.Close()
	e.Observe(o)
	e.Policy = forced(Push)
	if res, err := e.Run(context.Background(), algorithms.BFSKernel(0)); err != nil || !res.Converged {
		t.Fatalf("run: %v (converged=%v)", err, res.Converged)
	}
	evs := o.Events()
	if len(evs) != n {
		t.Fatalf("got %d events, want %d", len(evs), n)
	}
	var updates int64
	for _, ev := range evs {
		if ev.Scheduled != 1 {
			t.Fatalf("iter %d: Scheduled = %d, want 1", ev.Iter, ev.Scheduled)
		}
		updates += ev.Updates
	}
	if last := evs[n-1]; updates != n-1 || last.Updates != 0 {
		t.Fatalf("summed Updates = %d (last iteration %d), want %d winning sources and a sink that wins nothing",
			updates, last.Updates, n-1)
	}
}

// Trace recording spans direction switches: both directions record one
// event per adopted improvement with the adopted value, so the recorded
// total matches Result.Updates and iterations from both regimes appear.
func TestTraceSpansDirectionSwitches(t *testing.T) {
	g, err := gen.RMAT(240, 1500, gen.DefaultRMAT, 13)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Undirected()
	e, err := NewEngine(u, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := trace.NewRecorder(1 << 18)
	e.Trace(rec)
	e.Policy = alternating()
	res, err := e.Run(context.Background(), algorithms.WCCKernel())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total() != int64(res.Updates) {
		t.Fatalf("recorded %d events, Updates = %d", rec.Total(), res.Updates)
	}
	seen := map[int32]bool{}
	for _, ev := range rec.Events() {
		seen[ev.Iteration] = true
	}
	if len(res.Directions) > 1 && !seen[0] {
		t.Fatal("no events from iteration 0")
	}
	if !seen[1] {
		t.Fatal("no events from iteration 1 (other direction)")
	}
}

// A chain BFS exercises the sparse extreme: every frontier is one vertex,
// so the default policy must never leave push.
func TestChainStaysPush(t *testing.T) {
	g, err := gen.Chain(50)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(context.Background(), algorithms.BFSKernel(0))
	if err != nil || !res.Converged {
		t.Fatalf("run: %v", err)
	}
	if got := res.SwitchTrace(); strings.ContainsRune(got, 'L') {
		t.Fatalf("chain BFS pulled: %s", got)
	}
	inf := edgedata.FromFloat64(math.Inf(1))
	for v := range e.Vertices {
		if e.Vertices[v] == inf {
			t.Fatalf("vertex %d unreachable on a chain", v)
		}
		if got := edgedata.ToFloat64(e.Vertices[v]); got != float64(v) {
			t.Fatalf("vertex %d: dist %v, want %d", v, got, v)
		}
	}
}

// A panic in Kernel.Message comes back from Run as an error naming the
// vertex — the source being relaxed in a push, the destination gathering in
// each of the three pull sweeps — exactly as core and nosync report a
// panicking update, and the engine runs again afterwards. (It used to reach
// the pool's barrier and kill the process.)
func TestHybridLifecyclePanic(t *testing.T) {
	const n = 12
	chain, err := gen.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	unit := make([]float64, chain.M())
	for i := range unit {
		unit[i] = 1
	}
	e56, ok := chain.FindEdge(5, 6)
	if !ok {
		t.Fatal("chain has no edge 5→6")
	}
	five := edgedata.FromFloat64(5)
	for _, tc := range []struct {
		name   string
		kernel algorithms.Kernel
		dir    Direction
		// trip reports whether this Message call panics; want is the vertex
		// the single-threaded run is then working for.
		trip func(srcVal uint64, e uint32) bool
		want int
	}{
		{"bfs/push", algorithms.BFSKernel(0), Push, func(s uint64, _ uint32) bool { return s == five }, 5},
		{"bfs/pull-first-offer", algorithms.BFSKernel(0), Pull, func(s uint64, _ uint32) bool { return s == five }, 6},
		{"wcc/push", algorithms.WCCKernel(), Push, func(s uint64, _ uint32) bool { return s == 0 }, 0},
		{"wcc/pull-value-only", algorithms.WCCKernel(), Pull, func(s uint64, _ uint32) bool { return s == 0 }, 1},
		{"sssp/push", algorithms.SSSPKernel(0, unit), Push, func(_ uint64, e uint32) bool { return e == e56 }, 5},
		{"sssp/pull-edge-indexed", algorithms.SSSPKernel(0, unit), Pull, func(_ uint64, e uint32) bool { return e == e56 }, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := chain
			if tc.kernel.Undirected {
				g = chain.Undirected()
			}
			e, err := NewEngine(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.Policy = forced(tc.dir)
			bad := tc.kernel
			bad.Message = func(srcVal uint64, edge uint32) uint64 {
				if tc.trip(srcVal, edge) {
					panic("kaboom")
				}
				return tc.kernel.Message(srcVal, edge)
			}
			res, err := e.Run(context.Background(), bad)
			want := fmt.Sprintf("hybrid: update function panicked on vertex %d: kaboom", tc.want)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
			if res.Converged || res.Duration <= 0 {
				t.Fatalf("panicked run reported %+v", res)
			}
			res, err = e.Run(context.Background(), tc.kernel)
			if err != nil || !res.Converged {
				t.Fatalf("rerun after panic: %+v, %v", res, err)
			}
			for v, w := range e.Vertices {
				if want := edgedata.FromFloat64(float64(v)); tc.kernel.Name != "wcc" && w != want {
					t.Fatalf("rerun: vertex %d = %#x, want distance %d", v, w, v)
				}
				if tc.kernel.Name == "wcc" && w != 0 {
					t.Fatalf("rerun: vertex %d labelled %d, want component 0", v, w)
				}
			}
		})
	}
}
