package experiments

import (
	"context"
	"math"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/netdist"
)

// NetDistRow reports one real-transport distributed run: worker-process
// count, agreement with the sequential reference, and the supervision
// counters (restarts observed under fault injection, quiescence sweeps).
type NetDistRow struct {
	Graph     string
	Algo      string `col:"algorithm"`
	Workers   int
	Faults    string
	Restarts  int
	Sweeps    int
	Duration  time.Duration `col:"time(s)"`
	Identical bool          `col:"results identical"`
}

// NetDistScaling exercises internal/netdist — worker processes on real
// TCP transport — on an R-MAT analog: WCC and SSSP across a worker-count
// sweep, each checked byte-identically against the sequential reference,
// plus one faulted 4-worker run per algorithm that survives a worker kill
// and a full data-plane partition mid-run.
func NetDistScaling(cfg Config) ([]NetDistRow, error) {
	cfg.validate()
	n := 200_000 / cfg.Scale
	if n < 500 {
		n = 500
	}
	spec := netdist.GraphSpec{Kind: "rmat", N: n, M: 5 * n, Seed: cfg.Seed}
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	src := PickSource(g)
	wantWCC := algorithms.ReferenceWCC(g)
	weights := algorithms.NewSSSP(g, src, cfg.Seed+1).Weights
	wantSSSP := algorithms.ReferenceSSSP(g, src, weights)

	algos := []struct {
		name string
		spec netdist.AlgoSpec
		same func(res *netdist.Result) bool
	}{
		{"wcc", netdist.AlgoSpec{Name: "wcc"}, func(res *netdist.Result) bool {
			got := res.Labels()
			for v := range wantWCC {
				if got[v] != wantWCC[v] {
					return false
				}
			}
			return true
		}},
		{"sssp", netdist.AlgoSpec{Name: "sssp", Source: src, WeightSeed: cfg.Seed + 1}, func(res *netdist.Result) bool {
			got := res.Floats()
			for v := range wantSSSP {
				if math.Float64bits(got[v]) != math.Float64bits(wantSSSP[v]) {
					return false
				}
			}
			return true
		}},
	}

	var rows []NetDistRow
	for _, a := range algos {
		for _, workers := range []int{1, 2, 4} {
			opt := netdist.Options{
				Workers:   workers,
				Graph:     spec,
				Algo:      a.spec,
				Observer:  cfg.Observer,
				RTO:       50 * time.Millisecond,
				Heartbeat: 25 * time.Millisecond,
			}
			res, err := netdist.Run(context.Background(), opt)
			if err != nil {
				return nil, err
			}
			rows = append(rows, NetDistRow{
				Graph: "rmat", Algo: a.name, Workers: workers, Faults: "none",
				Restarts: res.Restarts, Sweeps: res.Sweeps,
				Identical: a.same(res), Duration: res.Duration,
			})
		}

		// Faulted run: kill one worker and partition another mid-run; the
		// supervisor must restore from checkpoint and ripple-repair the
		// boundary, and the result must still match exactly.
		proxy := netdist.NewProxy()
		launcher := netdist.NewLocalLauncher()
		proxy.Isolate(2)
		go func() {
			time.Sleep(400 * time.Millisecond)
			_ = launcher.Kill(1)
			time.Sleep(500 * time.Millisecond)
			proxy.Heal()
		}()
		opt := netdist.Options{
			Workers:   4,
			Graph:     spec,
			Algo:      a.spec,
			Proxy:     proxy,
			Launcher:  launcher,
			Observer:  cfg.Observer,
			RTO:       50 * time.Millisecond,
			Heartbeat: 25 * time.Millisecond,
			CkptOps:   256,
		}
		res, err := netdist.Run(context.Background(), opt)
		proxy.Close()
		launcher.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, NetDistRow{
			Graph: "rmat", Algo: a.name, Workers: 4,
			Faults: "kill+partition", Restarts: res.Restarts, Sweeps: res.Sweeps,
			Identical: a.same(res), Duration: res.Duration,
		})
	}
	return rows, nil
}
