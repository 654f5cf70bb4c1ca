package async

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/rng"
)

// runNoSync mirrors runAsync for the work-stealing tier: set the algorithm
// up on a scratch barrier-based engine, transplant the state, drain. The
// eligibility verdict comes from the static advisor unless the caller
// already supplied one.
func runNoSync(t *testing.T, a algorithms.Algorithm, g *graph.Graph, opts NoSyncOptions) (*NoSync, NoSyncResult) {
	t.Helper()
	if opts.Verdict == nil {
		v, err := algorithms.NoSyncVerdict(a, g)
		if err != nil {
			t.Fatal(err)
		}
		opts.Verdict = &v
	}
	e, err := core.NewEngine(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.Setup(e)
	x, err := NewNoSync(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	if err := x.LoadFrom(e); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(a.Update)
	if err != nil {
		t.Fatal(err)
	}
	return x, res
}

// testVerdict is a hand-built admission ticket for synthetic update
// functions in these tests (monotone by construction, Theorem 2 shape).
func testVerdict() *eligibility.Verdict {
	return &eligibility.Verdict{Eligible: true, Theorem: 2, Source: "test"}
}

func TestNoSyncGateRefusals(t *testing.T) {
	g, _ := gen.Ring(8)
	// No verdict at all: the tier must refuse to run blind.
	if _, err := NewNoSync(g, NoSyncOptions{Threads: 1}); err == nil {
		t.Error("nil verdict accepted")
	}
	// Ineligible verdict.
	bad := &eligibility.Verdict{Eligible: false, Reasons: []string{"not monotonic"}}
	if _, err := NewNoSync(g, NoSyncOptions{Threads: 1, Verdict: bad}); err == nil {
		t.Error("ineligible verdict accepted")
	} else if !strings.Contains(err.Error(), "not monotonic") {
		t.Errorf("refusal does not carry the verdict's reasons: %v", err)
	}
	// Eligible but covered by no theorem: a malformed ticket.
	odd := &eligibility.Verdict{Eligible: true, Theorem: 0}
	if _, err := NewNoSync(g, NoSyncOptions{Threads: 1, Verdict: odd}); err == nil {
		t.Error("theorem-less verdict accepted")
	}
	// Coloring has write-write conflicts and is not monotone: the static
	// advisor must refuse it end to end.
	v, err := algorithms.NoSyncVerdict(algorithms.NewColoring(), g)
	if err != nil {
		t.Fatal(err)
	}
	if v.Eligible {
		t.Fatal("static advisor marked coloring eligible")
	}
	if _, err := NewNoSync(g, NoSyncOptions{Threads: 1, Verdict: &v}); err == nil {
		t.Error("coloring admitted to the no-sync tier")
	}
	// Structural refusals shared with the channel executor.
	if _, err := NewNoSync(nil, NoSyncOptions{Verdict: testVerdict()}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewNoSync(g, NoSyncOptions{Threads: 4, Mode: edgedata.ModeSequential, Verdict: testVerdict()}); err == nil {
		t.Error("multi-worker sequential mode accepted")
	}
}

func TestNoSyncEmptySeedsConverges(t *testing.T) {
	g, _ := gen.Ring(4)
	x, err := NewNoSync(g, NoSyncOptions{Threads: 2, Mode: edgedata.ModeAtomic, Verdict: testVerdict()})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	res, err := x.Run(func(core.VertexView) {})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Updates != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestNoSyncWCCIdenticalToReference(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 71)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	want := algorithms.ReferenceWCC(g)
	for _, threads := range []int{1, 4, 8} {
		x, res := runNoSync(t, wcc, g, NoSyncOptions{Threads: threads, Mode: edgedata.ModeAtomic})
		if !res.Converged {
			t.Fatalf("threads=%d: did not converge", threads)
		}
		for v := range want {
			if uint32(x.Vertices[v]) != want[v] {
				t.Fatalf("threads=%d: vertex %d = %d, want %d", threads, v, x.Vertices[v], want[v])
			}
		}
	}
}

func TestNoSyncBFSIdenticalToReference(t *testing.T) {
	g, err := gen.Grid(8, 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := algorithms.NewBFS(g, 0)
	x, res := runNoSync(t, b, g, NoSyncOptions{Threads: 4, Mode: edgedata.ModeAtomic})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			got := edgedata.ToFloat64(x.Vertices[r*8+c])
			if got != float64(r+c) {
				t.Fatalf("dist[%d,%d] = %v, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestNoSyncSSSPMatchesDijkstra(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 72)
	if err != nil {
		t.Fatal(err)
	}
	s := algorithms.NewSSSP(g, 1, 9)
	want := algorithms.ReferenceSSSP(g, 1, s.Weights)
	x, res := runNoSync(t, s, g, NoSyncOptions{Threads: 4, Mode: edgedata.ModeAtomic})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v := range want {
		if got := edgedata.ToFloat64(x.Vertices[v]); got != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got, want[v])
		}
	}
}

func TestNoSyncMaxUpdatesCap(t *testing.T) {
	g, err := gen.Ring(100)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	_, res := runNoSync(t, wcc, g, NoSyncOptions{Threads: 2, Mode: edgedata.ModeAtomic, MaxUpdates: 10})
	if res.Converged {
		t.Fatal("capped run reported convergence")
	}
	if res.Updates > 10 {
		t.Fatalf("Updates = %d beyond cap", res.Updates)
	}
}

// TestNoSyncSelfSustainingWorkloadClaimsEverySeed pins the seed-cursor
// liveness rule in drain: when every update reschedules its own vertex the
// deque never runs dry, so unclaimed seeds are reached only through the
// periodic claim. One worker makes the schedule deterministic: all n seeds
// are claimed within n updates and the FIFO deque runs each within n more.
func TestNoSyncSelfSustainingWorkloadClaimsEverySeed(t *testing.T) {
	const n = 16 * seedChunk
	g, err := gen.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewNoSync(g, NoSyncOptions{Threads: 1, MaxUpdates: 4 * n, Verdict: testVerdict()})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for v := 0; v < n; v++ {
		x.Seed(uint32(v))
	}
	res, err := x.Run(func(c core.VertexView) {
		c.SetVertex(1)
		c.ScheduleSelf()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("self-sustaining run reported convergence")
	}
	for v, w := range x.Vertices {
		if w != 1 {
			t.Fatalf("seed %d never ran before the MaxUpdates fuse", v)
		}
	}
}

// TestNoSyncTerminationStorm is the distributed-termination stress: across
// randomized worker counts and steal seeds, every vertex carries a work
// budget and keeps re-scheduling itself (and waking its ring neighbor, so
// bursts cross worker deques) until the budget is spent. The detector must
// neither quiesce early — a leftover budget means a vertex was still
// scheduled when termination was declared — nor hang, which a watchdog
// bounds.
func TestNoSyncTerminationStorm(t *testing.T) {
	const n = 257 // prime-ish, so ring wakeups stripe across workers
	g, err := gen.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(0xdecaf)
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		threads := 1 + r.Intn(8)
		seed := uint64(trial)*0x9e3779b97f4a7c15 + 1
		budgets := make([]atomic.Int64, n)
		var total int64
		for v := range budgets {
			b := int64(1 + (v*7+trial)%13)
			budgets[v].Store(b)
			total += b
		}
		var tick atomic.Uint64
		update := func(c core.VertexView) {
			for {
				cur := budgets[c.V()].Load()
				if cur == 0 {
					return // woken after exhaustion: legitimate no-op
				}
				if budgets[c.V()].CompareAndSwap(cur, cur-1) {
					if cur-1 > 0 {
						c.ScheduleSelf()
					}
					// Wake the ring successor with a fresh edge value:
					// a cross-vertex (often cross-worker) re-enqueue burst.
					c.SetOutEdgeVal(0, tick.Add(1))
					return
				}
			}
		}
		x, err := NewNoSync(g, NoSyncOptions{
			Threads: threads, Mode: edgedata.ModeAtomic,
			Verdict: testVerdict(), StealSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			x.Seed(uint32(v))
		}
		type outcome struct {
			res NoSyncResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := x.Run(update)
			done <- outcome{res, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("trial %d (threads=%d seed=%#x): termination detector hung", trial, threads, seed)
		}
		x.Close()
		if out.err != nil {
			t.Fatalf("trial %d: %v", trial, out.err)
		}
		if !out.res.Converged {
			t.Fatalf("trial %d: did not converge", trial)
		}
		var left int64
		for v := range budgets {
			if b := budgets[v].Load(); b != 0 {
				left += b
				if b < 0 {
					t.Fatalf("trial %d: vertex %d budget went negative (%d): update overlapped itself", trial, v, b)
				}
			}
		}
		if left != 0 {
			t.Fatalf("trial %d (threads=%d seed=%#x): quiesced early with %d/%d budget unspent", trial, threads, seed, left, total)
		}
		if out.res.Updates < total {
			t.Fatalf("trial %d: %d updates < %d budgeted executions", trial, out.res.Updates, total)
		}
	}
}

// TestNoSyncMonotonicity pins Theorem 2's premise on the tier itself:
// under concurrent barrier-free execution of WCC, every committed vertex
// value only improves under the kernel's Better relation (labels strictly
// decrease or stay). A violation would mean an update read torn or
// resurrected state and committed a regression.
func TestNoSyncMonotonicity(t *testing.T) {
	g, err := gen.RMAT(500, 3000, gen.DefaultRMAT, 75)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	better := func(c, cur uint64) bool { return c < cur } // WCC's merge: min-label
	var violations atomic.Int64
	wrapped := func(c core.VertexView) {
		before := c.Vertex()
		wcc.Update(c)
		after := c.Vertex()
		if after != before && !better(after, before) {
			violations.Add(1)
		}
	}
	e, err := core.NewEngine(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wcc.Setup(e)
	v, err := algorithms.NoSyncVerdict(wcc, g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewNoSync(g, NoSyncOptions{Threads: 8, Mode: edgedata.ModeAtomic, Verdict: &v})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.LoadFrom(e); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d committed values regressed under Better", n)
	}
	want := algorithms.ReferenceWCC(g)
	for u := range want {
		if uint32(x.Vertices[u]) != want[u] {
			t.Fatalf("vertex %d = %d, want %d", u, x.Vertices[u], want[u])
		}
	}
}

// TestNoSyncStealsObserved forces a maximally imbalanced dynamic load:
// only the hub of a star is seeded, so the seed cursor is exhausted after
// one claim and the hub's single update posts every spoke onto the
// executing worker's deque — the other seven workers can make progress
// only by stealing. Pin that the steal counters actually move and that
// every spoke still executes exactly once.
func TestNoSyncStealsObserved(t *testing.T) {
	g, err := gen.Star(4096)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewNoSync(g, NoSyncOptions{Threads: 8, Mode: edgedata.ModeAtomic, Verdict: testVerdict()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	x.Seed(0) // hub only: spokes arrive solely as dynamic posts
	var spokeRan atomic.Bool
	upd := func(vw core.VertexView) {
		vw.SetVertex(vw.Vertex() + 1)
		if vw.V() != 0 {
			spokeRan.Store(true)
			return
		}
		// Fan out: every out-edge write posts its far endpoint onto the
		// executing worker's own deque. Out-edges only — a second post per
		// spoke could legitimately re-execute one that finished in
		// between, breaking the exactly-once check below.
		for k := 0; k < vw.OutDegree(); k++ {
			vw.SetOutEdgeVal(k, 1)
		}
		// Hold the hub's worker inside this update until a spoke has run:
		// every spoke sits in this worker's deque, so the first one to run
		// was stolen. Waiting on that event, rather than hoping the thieves
		// get on CPU before the owner drains its backlog, makes the steal
		// certain on any GOMAXPROCS and load.
		for !spokeRan.Load() {
			runtime.Gosched()
		}
	}
	res, err := x.Run(upd)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Steals == 0 {
		t.Fatal("8-thread hub-seeded star run recorded zero steals")
	}
	for v, w := range x.Vertices {
		if w != 1 {
			t.Fatalf("vertex %d executed %d times, want 1", v, w)
		}
	}
}

// TestAsyncQueueOverflowNoDeadlock is the regression test for the channel
// executor's historical blocking-send hazard: with a full queue, a worker
// re-enqueueing a burst of wakeups blocked inside its own update while
// every other worker blocked the same way — no receiver left, deadlock.
// QueueCap=1 on a star graph (one hub update schedules every leaf at once)
// reproduced it deterministically before the overflow list existed.
func TestAsyncQueueOverflowNoDeadlock(t *testing.T) {
	g, err := gen.Star(512)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	want := algorithms.ReferenceWCC(g)
	for _, threads := range []int{1, 4} {
		e, err := core.NewEngine(g, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wcc.Setup(e)
		x, err := NewExecutor(g, Options{Threads: threads, Mode: edgedata.ModeAtomic, QueueCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := x.LoadFrom(e); err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			res Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := x.Run(wcc.Update)
			done <- outcome{res, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("threads=%d: executor deadlocked with QueueCap=1", threads)
		}
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !out.res.Converged {
			t.Fatalf("threads=%d: did not converge", threads)
		}
		for v := range want {
			if uint32(x.Vertices[v]) != want[v] {
				t.Fatalf("threads=%d: vertex %d = %d, want %d", threads, v, x.Vertices[v], want[v])
			}
		}
	}
}

// TestNoSyncReRunAfterStop pins that a budget-stopped run leaves the
// executor reusable: the next Run resets states, deques, and counters.
func TestNoSyncReRunAfterStop(t *testing.T) {
	g, err := gen.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	wcc := algorithms.NewWCC()
	v, err := algorithms.NoSyncVerdict(wcc, g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wcc.Setup(e)
	x, err := NewNoSync(g, NoSyncOptions{Threads: 4, Mode: edgedata.ModeAtomic, MaxUpdates: 5, Verdict: &v})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.LoadFrom(e); err != nil {
		t.Fatal(err)
	}
	if res, err := x.Run(wcc.Update); err != nil || res.Converged {
		t.Fatalf("capped run: res=%+v err=%v", res, err)
	}
	// Reload and lift the cap: must now drain to the true fixed point.
	e2, err := core.NewEngine(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wcc.Setup(e2)
	x.opts.MaxUpdates = 1 << 26
	if err := x.LoadFrom(e2); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(wcc.Update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("re-run did not converge")
	}
	for u := range x.Vertices {
		if x.Vertices[u] != 0 {
			t.Fatalf("vertex %d = %d, want 0", u, x.Vertices[u])
		}
	}
}
