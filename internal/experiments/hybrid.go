package experiments

import (
	"context"
	"fmt"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/gen"
	"ndgraph/internal/hybrid"
)

// HybridRow is one graph × algorithm line of the direction-optimizing
// sweep: how the Beamer policy scheduled directions, and what that bought
// over forcing every iteration through the push kernel.
type HybridRow struct {
	Graph      string
	Algo       string
	Threads    int
	Iterations int `col:"iters"`
	// Switches counts direction changes between consecutive iterations.
	Switches int
	// Hybrid is the wall time under the default Beamer policy; AllPush is
	// the same engine forced to push every iteration; Speedup is their
	// ratio.
	Hybrid  time.Duration `col:"hybrid(s)"`
	AllPush time.Duration `col:"all-push(s)"`
	Speedup float64
	// Trace is one character per iteration: 'P' push, 'L' pull.
	Trace string
}

// HybridStudy runs the paired push/pull kernels (WCC, BFS, SSSP) on every
// benchmark graph through the direction-optimizing engine, once under the
// default Beamer policy and once forced all-push, reporting the recorded
// direction trace and both times (best of three runs). WCC runs on the
// symmetrized graph, per its kernel contract.
func HybridStudy(cfg Config) ([]HybridRow, error) {
	cfg.validate()
	gs, err := Graphs(cfg)
	if err != nil {
		return nil, err
	}
	threads := 4
	rows := make([]HybridRow, 0, 12)
	for _, d := range gen.AllDatasets() {
		g := gs[d.String()]
		src := PickSource(g)
		weights := algorithms.NewSSSP(g, src, cfg.Seed).Weights
		kernels := []struct {
			name string
			k    algorithms.Kernel
		}{
			{"wcc", algorithms.WCCKernel()},
			{"bfs", algorithms.BFSKernel(src)},
			{"sssp", algorithms.SSSPKernel(src, weights)},
		}
		for _, kc := range kernels {
			kg := g
			if kc.k.Undirected {
				kg = g.Undirected()
			}
			e, err := hybrid.NewEngine(kg, threads)
			if err != nil {
				return nil, fmt.Errorf("hybrid %s/%s: %w", d, kc.name, err)
			}
			if cfg.Observer != nil {
				e.Observe(cfg.Observer)
			}
			hybridT, beamer, err := bestOf3(e, kc.k)
			var pushT time.Duration
			if err == nil {
				e.Policy = func(hybrid.Stats) hybrid.Direction { return hybrid.Push }
				pushT, _, err = bestOf3(e, kc.k)
			}
			e.Close()
			if err != nil {
				return nil, fmt.Errorf("hybrid %s/%s: %w", d, kc.name, err)
			}
			rows = append(rows, HybridRow{
				Graph:      d.String(),
				Algo:       kc.name,
				Threads:    threads,
				Iterations: beamer.Iterations,
				Switches:   beamer.Switches,
				Trace:      beamer.SwitchTrace(),
				Hybrid:     hybridT,
				AllPush:    pushT,
				Speedup:    float64(pushT) / float64(hybridT),
			})
		}
	}
	return rows, nil
}

// bestOf3 runs k three times on e and returns the fastest time and the last
// result.
func bestOf3(e *hybrid.Engine, k algorithms.Kernel) (time.Duration, hybrid.Result, error) {
	var best time.Duration
	var res hybrid.Result
	for i := 0; i < 3; i++ {
		r, err := e.Run(context.Background(), k)
		if err == nil && !r.Converged {
			err = fmt.Errorf("did not converge")
		}
		if err != nil {
			return 0, res, err
		}
		if i == 0 || r.Duration < best {
			best = r.Duration
		}
		res = r
	}
	return best, res, nil
}
