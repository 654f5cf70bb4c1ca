// End-to-end observability: one shared Observer wired into every
// executor, then scraped over the live HTTP endpoint. This is the
// integration counterpart of internal/obs's unit tests — it pins the
// acceptance criterion that a /metrics scrape during a run reports live
// counters for every engine type, through the same facade-exported
// surface (ndgraph.NewObserver, ndgraph.ServeTelemetry) a user would hold.
package ndgraph_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"ndgraph"
	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/hybrid"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// engineKinds is every engine kind, in label order.
var engineKinds = []obs.EngineKind{obs.EngineCore, obs.EngineNetdist, obs.EngineHybrid, obs.EngineNoSync}

func TestObserverCountsEveryEngine(t *testing.T) {
	spec := ndgraph.NetDistGraph{Kind: "rmat", N: 160, M: 900, Seed: 321}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// No SampleConflicts: the NoSync scheduler refuses an observer that
	// samples conflicts, so core turns its census on with EnableCensus.
	o := ndgraph.NewObserver(ndgraph.ObserverOptions{})
	defer o.Close()

	// core: barrier engine, Observer option; with the census on, RW/WW
	// rates flow into the events.
	if _, res, err := algorithms.Run(algorithms.NewWCC(), g, core.Options{
		Scheduler: sched.Nondeterministic, Threads: 2, Mode: edgedata.ModeAtomic, EnableCensus: true, Observer: o,
	}); err != nil || !res.Converged {
		t.Fatalf("core: %v", err)
	}

	// nosync: the core engine's barrier-free scheduler, Observer option.
	if _, res, err := algorithms.Run(algorithms.NewWCC(), g, core.Options{
		Scheduler: sched.NoSync, Threads: 2, Mode: edgedata.ModeAtomic, Observer: o,
	}); err != nil || !res.Converged {
		t.Fatalf("nosync: %v", err)
	}

	// netdist: TCP workers, Observer option; the summary event carries the
	// message total.
	if res, err := ndgraph.NetDistRun(context.Background(), ndgraph.NetDistOptions{
		Workers: 2, Graph: spec, Algo: ndgraph.NetDistAlgo{Name: "wcc"},
		RTO: 50 * time.Millisecond, Heartbeat: 25 * time.Millisecond, Observer: o,
	}); err != nil || !res.Converged {
		t.Fatalf("netdist: %v", err)
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

	// Every engine kind must have folded at least one sample with real
	// update traffic into the shared observer.
	stats := o.Stats()
	byEngine := make(map[string]ndgraph.TelemetryEngineStats, len(stats))
	for _, s := range stats {
		byEngine[s.Engine] = s
	}
	for _, k := range engineKinds {
		engine := k.String()
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
		t.Error("core engine with EnableCensus reported no census")
	}
	if byEngine["netdist"].Messages == 0 {
		t.Error("netdist engine lost its message total")
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
	for _, k := range engineKinds {
		prefix := fmt.Sprintf(`ndgraph_samples_total{engine=%q} `, k)
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
