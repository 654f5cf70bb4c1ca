package ndgraph_test

import (
	"fmt"
	"reflect"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/async"
	"ndgraph/internal/autonomous"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/fault"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/shard"
	"ndgraph/internal/trace"
)

// The bulk accessors (InEdgeVals, OutEdgeVals, SetOutEdgeVals) promise to
// mean exactly what the per-edge loops mean. These tests run one update
// function written both ways through every VertexView implementation ×
// atomicity mode × instrumentation, single-threaded so every run is
// deterministic, and require everything a run leaves behind to be
// identical: result counters (iterations, updates, per-iteration scheduled
// sets — the next-frontier contents), final vertex and edge words, census
// totals, the observer's event stream (edge reads and writes per
// iteration) and delay histogram, the trace's events and commit log, the
// OnEdgeWrite stream and the fault tallies.

// minLabelPerEdge and minLabelBulk are the same update — WCC with a
// broadcast out-scatter — through the per-edge and the bulk API. Both read
// every in-edge then every out-edge exactly once, hold the two word lists
// together, then write min to all out-edges if any is stale and to each
// stale in-edge.
func minLabelPerEdge(ctx core.VertexView) {
	in := make([]uint64, ctx.InDegree())
	for k := range in {
		in[k] = ctx.InEdgeVal(k)
	}
	out := make([]uint64, ctx.OutDegree())
	for k := range out {
		out[k] = ctx.OutEdgeVal(k)
	}
	minLabelCommit(ctx, in, out, func(min uint64) {
		for k := range out {
			ctx.SetOutEdgeVal(k, min)
		}
	})
}

func minLabelBulk(ctx core.VertexView) {
	in, out := ctx.InEdgeVals(), ctx.OutEdgeVals()
	minLabelCommit(ctx, in, out, ctx.SetOutEdgeVals)
}

func minLabelCommit(ctx core.VertexView, in, out []uint64, broadcast func(uint64)) {
	min := ctx.Vertex()
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
	ctx.Yield()
	stale := false
	for _, w := range out {
		stale = stale || w > min
	}
	if stale {
		broadcast(min)
	}
	for k, w := range in {
		if w > min {
			ctx.SetInEdgeVal(k, min)
		}
	}
}

// minLabelCrossCheck reads every word through both APIs and fails on the
// first difference; single-threaded, nothing can change a word between
// the two reads.
func minLabelCrossCheck(t *testing.T) core.UpdateFunc {
	return func(ctx core.VertexView) {
		in, out := ctx.InEdgeVals(), ctx.OutEdgeVals()
		if len(in) != ctx.InDegree() || len(out) != ctx.OutDegree() {
			t.Errorf("vertex %d: bulk lengths %d/%d, degrees %d/%d", ctx.V(), len(in), len(out), ctx.InDegree(), ctx.OutDegree())
			return
		}
		for k, w := range in {
			if got := ctx.InEdgeVal(k); got != w {
				t.Errorf("vertex %d: InEdgeVals()[%d] = %#x, InEdgeVal(%d) = %#x", ctx.V(), k, w, k, got)
			}
		}
		for k, w := range out {
			if got := ctx.OutEdgeVal(k); got != w {
				t.Errorf("vertex %d: OutEdgeVals()[%d] = %#x, OutEdgeVal(%d) = %#x", ctx.V(), k, w, k, got)
			}
		}
		minLabelCommit(ctx, in, out, ctx.SetOutEdgeVals)
	}
}

// bulkRun is everything one run leaves behind.
type bulkRun struct {
	Result   any // the engine's result struct, Duration zeroed
	Vertices []uint64
	Edges    []uint64
	Events   []obs.Event
	Delay    []obs.DelaySnapshot
	Trace    *trace.Trace
	Writes   [][3]uint64 // OnEdgeWrite stream: edge, old, new
	Faults   fault.Stats
}

// instrumentation is one row of the table: what is switched on around the
// run. Observers, injectors and recorders are built afresh for every run.
type instrumentation struct {
	name      string
	census    bool
	potential bool
	observer  bool
	commits   bool
	inject    bool
	bsp       bool
	amplify   bool
	onWrite   bool
}

var bulkInstrumentations = []instrumentation{
	{name: "plain"},
	{name: "census", census: true},
	{name: "potential-census", potential: true},
	{name: "observer", observer: true},
	{name: "trace-commits", commits: true},
	{name: "inject", inject: true},
	{name: "synchronous", bsp: true},
	{name: "amplify+onwrite", amplify: true, onWrite: true},
}

func (in instrumentation) newObserver() *obs.Observer {
	if !in.observer {
		return nil
	}
	return obs.New(obs.Options{})
}

func (in instrumentation) newInjector() *fault.Injector {
	if !in.inject {
		return nil
	}
	return fault.MustInjector(fault.Plan{Seed: 5, TornWrite: 0.02, DropWrite: 0.04, StaleRead: 0.04, Delay: 0.02, MaxFaults: 200})
}

// scrub removes the wall-clock fields so two runs' event streams compare.
func scrub(evs []obs.Event) []obs.Event {
	for i := range evs {
		evs[i].TimeUnixNano, evs[i].DurationNanos, evs[i].BarrierWaitNanos = 0, 0, 0
	}
	return evs
}

func bulkModes() []edgedata.Mode {
	modes := []edgedata.Mode{edgedata.ModeSequential, edgedata.ModeLocked, edgedata.ModeAtomic}
	if !raceEnabled {
		modes = append(modes, edgedata.ModeAligned)
	}
	return modes
}

func bulkGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 23)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// setupMinLabel is WCC's initial state.
func setupMinLabel(e *core.Engine) { algorithms.NewWCC().Setup(e) }

// checkMinLabels pins the fixed point itself, so "identical" cannot mean
// "identically wrong".
func checkMinLabels(t *testing.T, g *graph.Graph, vertices []uint64) {
	t.Helper()
	for v, want := range algorithms.ReferenceWCC(g) {
		if uint32(vertices[v]) != want {
			t.Fatalf("vertex %d: label %d, union-find %d", v, vertices[v], want)
		}
	}
}

func runCore(t *testing.T, g *graph.Graph, mode edgedata.Mode, in instrumentation, update core.UpdateFunc) bulkRun {
	t.Helper()
	var run bulkRun
	opts := core.Options{
		Scheduler:       sched.Nondeterministic,
		Threads:         1,
		Mode:            mode,
		RecordIters:     true,
		EnableCensus:    in.census,
		PotentialCensus: in.potential,
		Amplify:         in.amplify,
		Observer:        in.newObserver(),
		Inject:          in.newInjector(),
	}
	if in.bsp {
		opts.Scheduler = sched.Synchronous
	}
	var rec *trace.Recorder
	if in.commits {
		rec = trace.NewRecorder(1 << 16)
		rec.EnableCommits(1<<18, g.M())
		opts.Trace = rec
	}
	if in.onWrite {
		opts.OnEdgeWrite = func(e uint32, old, new uint64) {
			run.Writes = append(run.Writes, [3]uint64{uint64(e), old, new})
		}
	}
	e, err := core.NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	setupMinLabel(e)
	res, err := e.Run(update)
	if err != nil || !res.Converged {
		t.Fatalf("run: %v (converged=%v)", err, res.Converged)
	}
	res.Duration = 0
	run.Result = res
	run.Vertices = append([]uint64(nil), e.Vertices...)
	run.Edges = e.Edges.Snapshot()
	run.Events = scrub(opts.Observer.Events())
	run.Delay = opts.Observer.DelaySnapshots()
	if rec != nil {
		run.Trace = rec.Snapshot(trace.Meta{Vertices: g.N(), Edges: g.M()})
		if run.Trace.Truncated() {
			t.Fatal("trace truncated; raise the recorder capacity")
		}
	}
	if opts.Inject != nil {
		run.Faults = opts.Inject.Stats()
	}
	return run
}

func runAsync(t *testing.T, g *graph.Graph, mode edgedata.Mode, in instrumentation, update core.UpdateFunc) bulkRun {
	t.Helper()
	seed, err := core.NewEngine(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupMinLabel(seed)
	opts := async.Options{Threads: 1, Mode: mode, Observer: in.newObserver(), Inject: in.newInjector()}
	x, err := async.NewExecutor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.LoadFrom(seed); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(update)
	if err != nil || !res.Converged {
		t.Fatalf("run: %v (converged=%v)", err, res.Converged)
	}
	res.Duration = 0
	run := bulkRun{Result: res, Vertices: append([]uint64(nil), x.Vertices...), Edges: x.Edges.Snapshot(),
		Events: scrub(opts.Observer.Events()), Delay: opts.Observer.DelaySnapshots()}
	if opts.Inject != nil {
		run.Faults = opts.Inject.Stats()
	}
	return run
}

func runNoSync(t *testing.T, g *graph.Graph, mode edgedata.Mode, in instrumentation, update core.UpdateFunc) bulkRun {
	t.Helper()
	seed, err := core.NewEngine(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupMinLabel(seed)
	verdict, err := algorithms.NoSyncVerdict(algorithms.NewWCC(), g)
	if err != nil {
		t.Fatal(err)
	}
	opts := async.NoSyncOptions{Threads: 1, Mode: mode, Observer: in.newObserver(), Verdict: &verdict}
	x, err := async.NewNoSync(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.LoadFrom(seed); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(update)
	if err != nil || !res.Converged {
		t.Fatalf("run: %v (converged=%v)", err, res.Converged)
	}
	res.Duration = 0
	return bulkRun{Result: res, Vertices: append([]uint64(nil), x.Vertices...), Edges: x.Edges.Snapshot(),
		Events: scrub(opts.Observer.Events()), Delay: opts.Observer.DelaySnapshots()}
}

// runAutonomous drives the priority executor. Its edge writes schedule
// nobody, so the wrapper posts every neighbour of a vertex whose label
// moved (priority = the label: smallest first).
func runAutonomous(t *testing.T, g *graph.Graph, in instrumentation, update core.UpdateFunc) bulkRun {
	t.Helper()
	e, err := autonomous.NewEngine(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := in.newObserver()
	e.Observe(o)
	for v := range e.Vertices {
		e.Vertices[v] = uint64(v)
		e.Post(uint32(v), float64(v))
	}
	e.Edges.Fill(^uint64(0))
	seen := make([]bool, g.N())
	res, err := e.Run(func(ctx core.VertexView, s *autonomous.Scheduler) {
		before := ctx.Vertex()
		update(ctx)
		if after := ctx.Vertex(); after != before || !seen[ctx.V()] {
			seen[ctx.V()] = true
			for k := 0; k < ctx.InDegree(); k++ {
				s.Post(ctx.InNeighbor(k), float64(after))
			}
			for k := 0; k < ctx.OutDegree(); k++ {
				s.Post(ctx.OutNeighbor(k), float64(after))
			}
		}
	})
	if err != nil || !res.Converged {
		t.Fatalf("run: %v (converged=%v)", err, res.Converged)
	}
	res.Duration = 0
	return bulkRun{Result: res, Vertices: append([]uint64(nil), e.Vertices...), Edges: e.Edges.Snapshot(), Events: scrub(o.Events())}
}

func runShard(t *testing.T, g *graph.Graph, mode edgedata.Mode, in instrumentation, update core.UpdateFunc) bulkRun {
	t.Helper()
	st, err := shard.Build(g, t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range st.Vertices {
		st.Vertices[v] = uint64(v)
	}
	if err := st.FillValues(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	opts := shard.Options{Threads: 1, Mode: mode, Observer: in.newObserver(), Inject: in.newInjector()}
	e, err := shard.NewEngine(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Frontier().ScheduleAll()
	res, err := e.Run(update)
	if err != nil || !res.Converged {
		t.Fatalf("run: %v (converged=%v)", err, res.Converged)
	}
	res.Duration = 0
	run := bulkRun{Result: res, Vertices: append([]uint64(nil), st.Vertices...), Events: scrub(opts.Observer.Events())}
	if opts.Inject != nil {
		run.Faults = opts.Inject.Stats()
	}
	return run
}

// TestBulkAccessorsMatchPerEdge is the table: per engine, the
// instrumentations that engine has.
func TestBulkAccessorsMatchPerEdge(t *testing.T) {
	g := bulkGraph(t)
	only := func(names ...string) []instrumentation {
		var out []instrumentation
		for _, in := range bulkInstrumentations {
			for _, n := range names {
				if in.name == n {
					out = append(out, in)
				}
			}
		}
		return out
	}
	engines := []struct {
		name  string
		modes []edgedata.Mode
		rows  []instrumentation
		run   func(*testing.T, edgedata.Mode, instrumentation, core.UpdateFunc) bulkRun
	}{
		{"core", bulkModes(), bulkInstrumentations, func(t *testing.T, m edgedata.Mode, in instrumentation, u core.UpdateFunc) bulkRun {
			return runCore(t, g, m, in, u)
		}},
		{"async", bulkModes(), only("plain", "observer", "inject"), func(t *testing.T, m edgedata.Mode, in instrumentation, u core.UpdateFunc) bulkRun {
			return runAsync(t, g, m, in, u)
		}},
		{"nosync", bulkModes(), only("plain", "observer"), func(t *testing.T, m edgedata.Mode, in instrumentation, u core.UpdateFunc) bulkRun {
			return runNoSync(t, g, m, in, u)
		}},
		// The autonomous store is always ModeSequential.
		{"autonomous", []edgedata.Mode{edgedata.ModeSequential}, only("plain", "observer"), func(t *testing.T, _ edgedata.Mode, in instrumentation, u core.UpdateFunc) bulkRun {
			return runAutonomous(t, g, in, u)
		}},
		{"shard", bulkModes(), only("plain", "observer", "inject"), func(t *testing.T, m edgedata.Mode, in instrumentation, u core.UpdateFunc) bulkRun {
			return runShard(t, g, m, in, u)
		}},
	}
	for _, eng := range engines {
		for _, mode := range eng.modes {
			for _, in := range eng.rows {
				t.Run(fmt.Sprintf("%s/%v/%s", eng.name, mode, in.name), func(t *testing.T) {
					perEdge := eng.run(t, mode, in, minLabelPerEdge)
					bulk := eng.run(t, mode, in, minLabelBulk)
					if !reflect.DeepEqual(perEdge, bulk) {
						t.Errorf("bulk run differs from per-edge run:\nper-edge: %s\nbulk:     %s", describe(perEdge), describe(bulk))
					}
					if in.observer && len(bulk.Events) == 0 {
						t.Error("observer attached but no events compared")
					}
					checkMinLabels(t, g, bulk.Vertices)
					// The words themselves, read both ways inside one update
					// (not under injection, where every read rolls its own
					// stale-read fault).
					if !in.inject {
						checked := eng.run(t, mode, in, minLabelCrossCheck(t))
						checkMinLabels(t, g, checked.Vertices)
					}
				})
			}
		}
	}
}

// describe summarizes a run for a failure message (the full structs are
// thousands of words).
func describe(r bulkRun) string {
	var reads, writes int64
	for _, ev := range r.Events {
		reads += ev.EdgeReads
		writes += ev.EdgeWrites
	}
	s := fmt.Sprintf("result=%+v events=%d reads=%d writes=%d delay=%+v onwrite=%d faults=%+v",
		r.Result, len(r.Events), reads, writes, r.Delay, len(r.Writes), r.Faults)
	if r.Trace != nil {
		s += fmt.Sprintf(" trace=%d events/%d commits", len(r.Trace.Events), len(r.Trace.Commits))
	}
	return s
}

// TestBulkAccessorsMatchPerEdgeInReplay covers the sixth view: a recorded
// racy run replays to the recorded digest whether the replayed update uses
// the per-edge or the bulk API, with identical replay reports — the
// replay view matches recorded commits against attempted writes in order,
// so SetOutEdgeVals must attempt them in SetOutEdgeVal order.
func TestBulkAccessorsMatchPerEdgeInReplay(t *testing.T) {
	g := bulkGraph(t)
	for _, recorded := range []struct {
		name   string
		update core.UpdateFunc
	}{{"recorded-per-edge", minLabelPerEdge}, {"recorded-bulk", minLabelBulk}} {
		t.Run(recorded.name, func(t *testing.T) {
			rec := trace.NewRecorder(1 << 16)
			rec.EnableCommits(1<<18, g.M())
			e, err := core.NewEngine(g, core.Options{Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			setupMinLabel(e)
			if _, err := e.Run(recorded.update); err != nil {
				t.Fatal(err)
			}
			tr := rec.Snapshot(trace.Meta{Vertices: g.N(), Edges: g.M()})
			if tr.Truncated() {
				t.Fatal("trace truncated; raise the recorder capacity")
			}
			replay := func(update core.UpdateFunc) core.ReplayReport {
				r, err := core.NewEngine(g, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				setupMinLabel(r)
				rep, err := r.ReplayTrace(tr, update)
				if err != nil {
					t.Fatalf("replay: %v (%+v)", err, rep)
				}
				return rep
			}
			perEdge, bulk := replay(minLabelPerEdge), replay(minLabelBulk)
			if perEdge != bulk {
				t.Errorf("replay reports differ:\nper-edge: %+v\nbulk:     %+v", perEdge, bulk)
			}
			replay(minLabelCrossCheck(t))
		})
	}
}
