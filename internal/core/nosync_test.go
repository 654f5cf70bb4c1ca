package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/fault"
	"ndgraph/internal/gen"
	"ndgraph/internal/obs"
	"ndgraph/internal/rng"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// testVerdict is a hand-built admission ticket for synthetic update
// functions in these tests (monotone by construction, Theorem 2 shape).
func testVerdict() *eligibility.Verdict {
	return &eligibility.Verdict{Eligible: true, Theorem: 2, Source: "test"}
}

// nosyncOptions is the NoSync engine configuration of these tests.
func nosyncOptions(threads int) Options {
	return Options{Scheduler: sched.NoSync, Threads: threads, Mode: edgedata.ModeAtomic, Verdict: testVerdict()}
}

func TestNoSyncRunNilUpdate(t *testing.T) {
	g, _ := gen.Ring(4)
	e := newEngine(t, g, nosyncOptions(1))
	defer e.Close()
	if _, err := e.Run(nil); err == nil {
		t.Fatal("nil update accepted")
	}
}

// Min-label over a chain seeded at vertex 0 only: the scheduled set is the
// seed list, and a converged run leaves it empty.
func TestNoSyncSeedAPI(t *testing.T) {
	g, _ := gen.Chain(3)
	e := newEngine(t, g, nosyncOptions(1))
	defer e.Close()
	for v := range e.Vertices {
		e.Vertices[v] = uint64(v)
	}
	e.Edges.Fill(^uint64(0))
	e.Frontier().ScheduleNow(0)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v, w := range e.Vertices {
		if w != 0 {
			t.Fatalf("vertex %d = %d", v, w)
		}
	}
	if n := e.Frontier().Size(); n != 0 {
		t.Fatalf("converged run left %d vertices scheduled", n)
	}
}

func TestNoSyncEmptySeedsConverges(t *testing.T) {
	g, _ := gen.Ring(4)
	e := newEngine(t, g, nosyncOptions(2))
	defer e.Close()
	res, err := e.Run(func(VertexView) {})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Updates != 0 {
		t.Fatalf("res = %+v", res)
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
	opts := nosyncOptions(1)
	opts.MaxIters = 4 // an update cap of 4n
	e := newEngine(t, g, opts)
	defer e.Close()
	e.Frontier().ScheduleAll()
	res, err := e.Run(func(c VertexView) {
		c.SetVertex(1)
		c.ScheduleSelf()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("self-sustaining run reported convergence")
	}
	for v, w := range e.Vertices {
		if w != 1 {
			t.Fatalf("seed %d never ran before the update cap", v)
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
		update := func(c VertexView) {
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
		e := newEngine(t, g, nosyncOptions(threads))
		e.ns.stealSeed = seed
		e.Frontier().ScheduleAll()
		type outcome struct {
			res Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := e.Run(update)
			done <- outcome{res, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("trial %d (threads=%d seed=%#x): termination detector hung", trial, threads, seed)
		}
		e.Close()
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

// runHubStar forces a maximally imbalanced dynamic load: only the hub of a
// star is seeded, so the seed cursor is exhausted after one claim and the
// hub's single update posts every spoke onto the executing worker's deque
// — the other seven workers can make progress only by stealing. It checks
// that every spoke still executes exactly once, and runs the star `runs`
// times on one engine, returning the runs' summed counts.
func runHubStar(t *testing.T, o *obs.Observer, rec *trace.Recorder, runs int) Result {
	t.Helper()
	g, err := gen.Star(4096)
	if err != nil {
		t.Fatal(err)
	}
	opts := nosyncOptions(8)
	opts.Observer, opts.Trace = o, rec
	e := newEngine(t, g, opts)
	t.Cleanup(e.Close)
	var spokeRan atomic.Bool
	upd := func(vw VertexView) {
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
	var sum Result
	for range runs {
		e.Reset()
		spokeRan.Store(false)
		e.Frontier().ScheduleNow(0) // hub only: spokes arrive solely as dynamic posts
		res, err := e.Run(upd)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		for v, w := range e.Vertices {
			if w != 1 {
				t.Fatalf("vertex %d executed %d times, want 1", v, w)
			}
		}
		sum.Updates += res.Updates
		sum.Steals += res.Steals
		sum.IdleTransitions += res.IdleTransitions
	}
	return sum
}

// Pin that the steal counters actually move on the hub-seeded star.
func TestNoSyncStealsObserved(t *testing.T) {
	if res := runHubStar(t, nil, nil, 1); res.Steals == 0 {
		t.Fatal("8-thread hub-seeded star run recorded zero steals")
	}
}

// The Observer's nosync counters telescope to the Result's and the
// trace's: every worker's updates, steals and idle transitions reach it,
// and its edge writes are the per-update write counts the trace records,
// through each worker's own sample windows or the quiescence aggregate —
// also when the engine runs again.
func TestNoSyncObserverCountsMatchResult(t *testing.T) {
	o := obs.New(obs.Options{})
	defer o.Close()
	rec := trace.NewRecorder(1 << 14)
	res := runHubStar(t, o, rec, 2)
	var writes int64
	for _, ev := range rec.Events() {
		writes += int64(ev.Writes)
	}
	if rec.EventsTruncated() || writes == 0 {
		t.Fatalf("trace kept %d of %d events with %d writes", len(rec.Events()), rec.Total(), writes)
	}
	for _, s := range o.Stats() {
		if s.Engine != obs.EngineNoSync.String() {
			continue
		}
		if s.Steals != res.Steals || s.IdleTransitions != res.IdleTransitions {
			t.Fatalf("observer saw %d steals / %d idle transitions, Result has %d / %d",
				s.Steals, s.IdleTransitions, res.Steals, res.IdleTransitions)
		}
		if s.Updates != res.Updates || s.EdgeWrites != writes {
			t.Fatalf("observer saw %d updates / %d edge writes, Result has %d updates, the trace %d writes",
				s.Updates, s.EdgeWrites, res.Updates, writes)
		}
		return
	}
	t.Fatal("observer has no nosync row")
}

// NoSync's Residual gauge is pending tasks over |V|, the barrier tiers'
// active fraction: every sample of an observed, converged run lies in
// [0, 1], and the quiescence aggregate, emitted last, reads exactly 0.
func TestNoSyncResidualIsPendingFraction(t *testing.T) {
	o := obs.New(obs.Options{})
	defer o.Close()
	opts := nosyncOptions(2)
	opts.Observer = o
	e := newEngine(t, chainGraph(t, 2*sampleWindow), opts)
	defer e.Close()
	// Every vertex is seeded and lowers its edges from the maximum to its
	// label 0 once, waking each neighbor at most once per edge: |V| to
	// 3|V| updates, so one of the two workers fills a sample window.
	clear(e.Vertices)
	e.Edges.Fill(^uint64(0))
	e.Frontier().ScheduleAll()
	res, err := e.Run(minLabelUpdate)
	if err != nil || !res.Converged {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	var evs []obs.Event
	for _, ev := range o.Events() {
		if ev.Engine == obs.EngineNoSync {
			evs = append(evs, ev)
		}
	}
	if len(evs) < 2 {
		t.Fatalf("%d nosync events over %d updates, want window samples and the aggregate", len(evs), res.Updates)
	}
	for i, ev := range evs {
		if !(ev.Residual >= 0 && ev.Residual <= 1) {
			t.Errorf("event %d: Residual = %v, want it in [0, 1]", i, ev.Residual)
		}
	}
	if last := evs[len(evs)-1]; last.Residual != 0 || last.Scheduled != 0 {
		t.Errorf("quiescence aggregate: Residual = %v, Scheduled = %d, want 0 and 0", last.Residual, last.Scheduled)
	}
}

// TestNoSyncReRunAfterStop pins that a cap-stopped run leaves the engine
// reusable: the next Run resets states, deques, and counters.
func TestNoSyncReRunAfterStop(t *testing.T) {
	g := chainGraph(t, 64)
	opts := nosyncOptions(4)
	opts.MaxIters = 1 // an update cap of |V|: reversed labels need more
	e := newEngine(t, g, opts)
	defer e.Close()
	initReversedLabels(e)
	if res, err := e.Run(minLabelUpdate); err != nil || res.Converged {
		t.Fatalf("capped run: res=%+v err=%v", res, err)
	}
	// Reload and lift the cap: must now drain to the true fixed point.
	e.opts.MaxIters = DefaultMaxIters
	initReversedLabels(e)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("re-run did not converge")
	}
	for u := range e.Vertices {
		if e.Vertices[u] != 0 {
			t.Fatalf("vertex %d = %d, want 0", u, e.Vertices[u])
		}
	}
}

// Every scheduling site of Ctx — and the fault heal hook, which runs on
// the faulting worker — wakes through one seam. Under NoSync the woken
// vertices land on the writing worker's own deque and the frontier stays
// empty; under a barrier scheduler they land in the next iteration's
// scheduled set. Each Ctx site is driven on the plain and the per-edge
// path; the heal site on the per-edge path, the only one a faulted run
// takes: a dropped write of edge 1→2 heals both endpoints.
func TestNoSyncWakeupSeam(t *testing.T) {
	g := chainGraph(t, 3) // 0 → 1 → 2; the context is bound to 1
	sites := []struct {
		name   string
		call   func(c *Ctx)
		want   []int
		faulty bool
	}{
		{"SetInEdgeVal", func(c *Ctx) { c.SetInEdgeVal(0, 7) }, []int{0}, false},
		{"SetOutEdgeVal", func(c *Ctx) { c.SetOutEdgeVal(0, 7) }, []int{2}, false},
		{"SetOutEdgeVals", func(c *Ctx) { c.SetOutEdgeVals(7) }, []int{2}, false},
		{"ScheduleSelf", func(c *Ctx) { c.ScheduleSelf() }, []int{1}, false},
		{"heal", func(c *Ctx) { c.SetOutEdgeVal(0, 7) }, []int{1, 2}, true},
	}
	for _, site := range sites {
		for _, nosync := range []bool{false, true} {
			for _, plain := range []bool{true, false} {
				if site.faulty && plain {
					continue
				}
				opts := Options{Scheduler: sched.Nondeterministic, Threads: 2, Mode: edgedata.ModeAtomic}
				if nosync {
					opts = nosyncOptions(2)
				}
				if site.faulty {
					inj, err := fault.NewInjector(fault.Plan{Seed: 1, DropWrite: math.Nextafter(1, 0), MaxFaults: 1})
					if err != nil {
						t.Fatal(err)
					}
					opts.Inject = inj
				}
				t.Run(fmt.Sprintf("%s/%v/plain=%v", site.name, opts.Scheduler, plain), func(t *testing.T) {
					e := newEngine(t, g, opts)
					defer e.Close()
					e.ensureWorkers()
					if inj := opts.Inject; inj != nil {
						inj.Arm(e.heal)
						defer inj.Disarm()
					}
					c := &e.workers[1]
					c.plain = plain
					c.bind(1)
					site.call(c)
					var deques [2][]int
					if nosync {
						for w, d := range e.ns.deques {
							for v, ok := d.Steal(); ok; v, ok = d.Steal() {
								deques[w] = append(deques[w], v)
							}
						}
						slices.Sort(deques[1])
					}
					e.front.Advance()
					front := e.front.Members()
					if nosync && (!slices.Equal(deques[1], site.want) || len(deques[0]) != 0 || len(front) != 0) {
						t.Errorf("deques %v, frontier %v; want %v on worker 1's deque only", deques, front, site.want)
					}
					if !nosync && !slices.Equal(front, site.want) {
						t.Errorf("frontier %v, want %v", front, site.want)
					}
					if inj := opts.Inject; inj != nil {
						if s := inj.Stats(); s.DropWrites != 1 || s.Healed != 1 {
							t.Errorf("injector stats %+v, want one dropped write, healed once", s)
						}
					}
				})
			}
		}
	}
}
