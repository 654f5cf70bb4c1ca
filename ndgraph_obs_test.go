// End-to-end observability: one shared Observer wired into all six
// executors, then scraped over the live HTTP endpoint. This is the
// integration counterpart of internal/obs's unit tests — it pins the
// acceptance criterion that a /metrics scrape during a run reports live
// counters for every engine type, through the same facade-exported
// surface (ndgraph.NewObserver, ndgraph.ServeTelemetry) a user would hold.
package ndgraph_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"ndgraph"
	"ndgraph/internal/algorithms"
	"ndgraph/internal/async"
	"ndgraph/internal/autonomous"
	"ndgraph/internal/core"
	"ndgraph/internal/dist"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
	"ndgraph/internal/shard"
)

func TestObserverCountsEveryEngine(t *testing.T) {
	g, err := gen.RMAT(160, 900, gen.DefaultRMAT, 321)
	if err != nil {
		t.Fatal(err)
	}
	o := ndgraph.NewObserver(ndgraph.ObserverOptions{SampleConflicts: true})
	defer o.Close()

	// core: barrier engine, Observer option; SampleConflicts implies the
	// conflict census, so RW/WW rates flow without a second flag.
	if _, res, err := algorithms.Run(algorithms.NewWCC(), g,
		core.Options{Scheduler: sched.Nondeterministic, Threads: 2, Mode: edgedata.ModeAtomic, Observer: o}); err != nil || !res.Converged {
		t.Fatalf("core: %v", err)
	}

	// async: barrier-free executor, Observer option.
	{
		wcc := algorithms.NewWCC()
		seedEng, err := core.NewEngine(g, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wcc.Setup(seedEng)
		x, err := async.NewExecutor(g, async.Options{Threads: 2, Mode: edgedata.ModeAtomic, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		if err := x.LoadFrom(seedEng); err != nil {
			t.Fatal(err)
		}
		if res, err := x.Run(wcc.Update); err != nil || !res.Converged {
			t.Fatalf("async: %v", err)
		}
	}

	// shard: out-of-core PSW engine, Observer option.
	{
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
		e, err := shard.NewEngine(st, shard.Options{Threads: 2, Mode: edgedata.ModeAtomic, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Frontier().ScheduleAll()
		wcc := algorithms.NewWCC()
		if res, err := e.Run(wcc.Update); err != nil || !res.Converged {
			t.Fatalf("shard: %v", err)
		}
	}

	// dist: simulated message passing with duplication and loss, Observer
	// option; the final aggregate event carries the dup/drop totals.
	if _, res, err := dist.WCC(g, dist.Options{Workers: 2, Seed: 3, DuplicateProb: 0.2, DropProb: 0.1, Observer: o}); err != nil || !res.Converged {
		t.Fatalf("dist: %v", err)
	}

	// push mode: the hybrid engine under a policy that never pulls, Observe
	// method (constructor takes positional args).
	{
		e, err := hybrid.NewEngine(g.Undirected(), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Observe(o)
		e.Policy = func(hybrid.Stats) hybrid.Direction { return hybrid.Push }
		res, err := e.Run(context.Background(), algorithms.WCCKernel())
		if err != nil || !res.Converged {
			t.Fatalf("hybrid push: %v", err)
		}
		pushes := 0
		for _, ev := range o.Events() {
			if ev.Engine != obs.EngineHybrid {
				continue
			}
			if ev.Direction != "push" {
				t.Fatalf("forced-push iteration %d tagged %q", ev.Iter, ev.Direction)
			}
			pushes++
		}
		if pushes != res.Iterations {
			t.Fatalf("%d hybrid events tagged push, want one per iteration (%d)", pushes, res.Iterations)
		}
	}

	// autonomous: sequential priority-driven engine, Observe method.
	{
		e, err := autonomous.NewEngine(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		e.Observe(o)
		src := uint32(0)
		inf := edgedata.FromFloat64(math.Inf(1))
		for v := range e.Vertices {
			e.Vertices[v] = inf
		}
		e.Vertices[src] = edgedata.FromFloat64(0)
		e.Post(src, 0)
		update := func(ctx core.VertexView, s *autonomous.Scheduler) {
			d := edgedata.ToFloat64(ctx.Vertex())
			for k := 0; k < ctx.OutDegree(); k++ {
				u := ctx.OutNeighbor(k)
				if cand := d + 1; cand < edgedata.ToFloat64(e.Vertices[u]) {
					e.Vertices[u] = edgedata.FromFloat64(cand)
					s.Post(u, cand)
				}
			}
		}
		if _, err := e.Run(update); err != nil {
			t.Fatalf("autonomous: %v", err)
		}
	}

	// Every engine kind must have folded at least one sample with real
	// update traffic into the shared observer.
	stats := o.Stats()
	byEngine := make(map[string]ndgraph.TelemetryEngineStats, len(stats))
	for _, s := range stats {
		byEngine[s.Engine] = s
	}
	for _, engine := range []string{"core", "async", "shard", "dist", "hybrid", "autonomous"} {
		s, ok := byEngine[engine]
		if !ok {
			t.Fatalf("no stats row for engine %q", engine)
		}
		if s.Samples == 0 {
			t.Errorf("engine %q emitted no samples", engine)
		}
		if s.Updates == 0 {
			t.Errorf("engine %q counted no updates", engine)
		}
	}
	if byEngine["core"].RWConflicts < 0 {
		t.Error("core engine with SampleConflicts reported no census")
	}
	if byEngine["dist"].Duplicates == 0 || byEngine["dist"].Drops == 0 {
		t.Error("dist engine lost its duplicate/drop totals")
	}

	// Live scrape through the facade-exported server: every engine label
	// must appear in /metrics with a nonzero sample counter.
	srv, err := ndgraph.ServeTelemetry("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, %v", resp.StatusCode, err)
	}
	for _, engine := range []string{"core", "async", "shard", "dist", "hybrid", "autonomous"} {
		prefix := fmt.Sprintf(`ndgraph_samples_total{engine=%q} `, engine)
		found := false
		for _, line := range strings.Split(string(body), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil || v <= 0 {
					t.Errorf("scrape: %s%s — want a positive count", prefix, rest)
				}
				found = true
				break
			}
		}
		if !found {
			t.Errorf("scrape: no %s line in /metrics", strings.TrimSpace(prefix))
		}
	}
}
