package netdist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/graph"
	"ndgraph/internal/obs"
)

// TestRunLifecycle is netdist's share of core's TestLifecycle: the same
// chain, the same reversed-label WCC kernel with a hook in Message, and the
// scenarios netdist has a knob for. It has no iteration cap, its divergence
// guard is Options.Timeout rather than a watchdog, and its sweeps are
// timer-driven rather than barriers, so the cap, stall and mid-run progress
// checks do not apply. Every early end returns the partial Result
// (Converged false) next to the error.
func TestRunLifecycle(t *testing.T) {
	const n = 64
	spec := GraphSpec{Kind: "chain", N: n}
	undirected := mustBuild(t, spec).Undirected()
	e17, ok := undirected.FindEdge(17, 18)
	if !ok {
		t.Fatal("chain has no edge 17→18")
	}
	prev := testKernel
	t.Cleanup(func() { testKernel = prev })
	// run runs the hooked kernel in two in-process workers. Message sees
	// the canonical edge, so the hook ticks on edge ids.
	run := func(ctx context.Context, hook func(e uint32)) (*Result, error) {
		testKernel = func(name string) (algorithms.Kernel, bool) {
			k := algorithms.WCCKernel()
			k.Init = func(g *graph.Graph) ([]uint64, []int) {
				vals := make([]uint64, g.N())
				for i := range vals {
					vals[i] = uint64(len(vals) - 1 - i)
				}
				return vals, nil
			}
			k.Message = func(srcVal uint64, e uint32) uint64 {
				if hook != nil {
					hook(e)
				}
				return srcVal
			}
			return k, name == "lifecycle-wcc"
		}
		return Run(ctx, Options{Workers: 2, Graph: spec, Algo: AlgoSpec{Name: "lifecycle-wcc"}, Heartbeat: 5 * time.Millisecond})
	}
	stopped := func(t *testing.T, res *Result, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
		if res == nil || res.Converged {
			t.Fatalf("stopped run reported %+v", res)
		}
		if res.Sweeps > 0 && res.Duration <= 0 {
			t.Fatalf("stopped run after %d sweeps carries no Duration: %+v", res.Sweeps, res)
		}
	}

	t.Run("ctx-pre-expired", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ticks atomic.Int64
		res, err := run(ctx, func(uint32) { ticks.Add(1) })
		stopped(t, res, err, context.Canceled)
		if res.Sweeps != 0 || ticks.Load() != 0 {
			t.Fatalf("pre-cancelled run did work: %+v, %d ticks", res, ticks.Load())
		}
	})

	t.Run("ctx-cancel-mid-run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancelAt := int64(3*undirected.M()/2 + 1)
		var ticks atomic.Int64
		res, err := run(ctx, func(uint32) {
			if ticks.Add(1) == cancelAt {
				cancel()
			}
		})
		stopped(t, res, err, context.Canceled)
	})

	t.Run("panic", func(t *testing.T) {
		res, err := run(context.Background(), func(e uint32) {
			if e == e17 {
				panic("kaboom")
			}
		})
		if err == nil {
			t.Fatal("panic not surfaced as an error")
		}
		if want := fmt.Sprintf("netdist: update function panicked on vertex %d: kaboom", 17); !strings.Contains(err.Error(), want) {
			t.Fatalf("panic error %q lacks %q", err, want)
		}
		if res == nil || res.Converged {
			t.Fatalf("panicked run reported %+v", res)
		}
		// Nothing is poisoned: the same job runs again.
		if res, err := run(context.Background(), nil); err != nil || !res.Converged {
			t.Fatalf("rerun after panic: %+v, %v", res, err)
		}
	})
}

// refusingLauncher starts worker 0 and refuses every other.
type refusingLauncher struct{ *LocalLauncher }

func (l refusingLauncher) Start(id int) (string, error) {
	if id > 0 {
		return "", errors.New("no capacity")
	}
	return l.LocalLauncher.Start(id)
}

// A run that fails while launching its workers still returns its partial
// Result and emits its summary event, with the workers that never started
// counting nothing.
func TestRunLifecycleLaunchFailure(t *testing.T) {
	l := refusingLauncher{NewLocalLauncher()}
	defer l.Close()
	o := obs.New(obs.Options{})
	res, err := Run(context.Background(), Options{Workers: 2, Graph: GraphSpec{Kind: "chain", N: 8}, Algo: AlgoSpec{Name: "wcc"}, Launcher: l, Observer: o})
	if err == nil || !strings.Contains(err.Error(), "start worker 1: no capacity") {
		t.Fatalf("err = %v, want worker 1's start failure", err)
	}
	if res == nil || res.Converged || res.Messages != 0 {
		t.Fatalf("failed launch reported %+v", res)
	}
	if s := o.Stats()[obs.EngineNetdist]; s.Samples != 1 {
		t.Fatalf("netdist summary events = %d, want 1", s.Samples)
	}
}

// A spec the generator or the kernel table rejects fails inside each
// worker's init, not in the coordinator, and Run's error carries the
// worker's own message. PageRank has no certified kernel here, so netdist
// does not know it.
func TestRunReportsWorkerInitError(t *testing.T) {
	for _, tc := range []struct {
		spec GraphSpec
		algo AlgoSpec
		want string
	}{
		{GraphSpec{Kind: "rmat", N: 100, M: -1}, AlgoSpec{Name: "wcc"}, "RMAT needs"},
		{GraphSpec{Kind: "bogus", N: 100}, AlgoSpec{Name: "wcc"}, "unknown graph kind"},
		{GraphSpec{Kind: "chain", N: 100}, AlgoSpec{Name: "pagerank"}, "unknown algorithm"},
	} {
		res, err := Run(context.Background(), Options{Workers: 2, Graph: tc.spec, Algo: tc.algo})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v %+v: err = %v, want one containing %q", tc.spec, tc.algo, err, tc.want)
		}
		if res == nil || res.Converged {
			t.Errorf("%+v %+v: failed run reported %+v", tc.spec, tc.algo, res)
		}
	}
}

// TestIdleNoticeThenLateBatch: a worker's idle notice does not outlive the
// work that reaches it later. On a chain whose labels fall towards the far
// end, worker 0 settles its own half at once and reports idle, while worker
// 1 holds the boundary edge for a while and then sends the minimum label
// across. Worker 0 works through that late batch slowly, so the notice
// worker 1 sends on draining its window finds worker 0's old notice still
// standing and starts a sweep while worker 0 is busy. The run must still
// fetch the exact fixed point, since only the double sweep ends it. The 1 s
// heartbeat keeps the probe tick (2 s) out of the run: every sweep here is
// started by notices.
func TestIdleNoticeThenLateBatch(t *testing.T) {
	const n = 64
	spec := GraphSpec{Kind: "chain", N: n}
	undirected := mustBuild(t, spec).Undirected()
	boundary, ok := undirected.FindEdge(n/2, n/2-1)
	if !ok {
		t.Fatalf("chain has no edge %d→%d", n/2, n/2-1)
	}
	worker1, _ := undirected.OutEdgeIndex(n / 2) // first out-edge worker 1 owns
	prev := testKernel
	t.Cleanup(func() { testKernel = prev })
	var held atomic.Bool
	testKernel = func(name string) (algorithms.Kernel, bool) {
		k := algorithms.WCCKernel()
		k.Init = func(g *graph.Graph) ([]uint64, []int) {
			vals := make([]uint64, g.N())
			for i := range vals {
				vals[i] = uint64(len(vals) - 1 - i)
			}
			return vals, nil
		}
		k.Message = func(srcVal uint64, e uint32) uint64 {
			switch {
			case e == boundary && held.CompareAndSwap(false, true):
				time.Sleep(100 * time.Millisecond) // worker 1 holds the boundary
			case srcVal == 0 && e < worker1:
				time.Sleep(2 * time.Millisecond) // worker 0 works slowly
			}
			return srcVal
		}
		return k, name == "late-wcc"
	}
	res, err := Run(context.Background(), Options{Workers: 2, Graph: spec, Algo: AlgoSpec{Name: "late-wcc"}, Heartbeat: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for v, label := range res.Values {
		if label != 0 {
			t.Fatalf("vertex %d: label %d, want 0", v, label)
		}
	}
}
