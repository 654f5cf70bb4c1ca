package main

import (
	"os"
	"time"

	"ndgraph"
)

// shard.Engine: GraphChi-style parallel sliding windows over on-disk shards.
// A contender row on wcc-web; open shards the graph to disk (shard.build_s).
func init() {
	register("shard", &tier{
		supports: func(algo string) bool { return algo == "wcc" },
		open:     openShard,
	})
}

const shardCount = 4

type shardSolver struct {
	pr     *problem
	st     *ndgraph.ShardStorage
	e      *ndgraph.ShardEngine
	dir    string
	buildS float64
}

func openShard(pr *problem, o *ndgraph.Observer) (solver, error) {
	dir, err := os.MkdirTemp(pr.cfg.tmp, "shards-*")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, err := ndgraph.BuildShards(pr.g, dir, shardCount)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	e, err := ndgraph.NewShardEngine(st, ndgraph.ShardOptions{Threads: pr.cfg.workers, Mode: ndgraph.ModeAtomic, Observer: o})
	if err != nil {
		return nil, err
	}
	return &shardSolver{pr: pr, st: st, e: e, dir: dir, buildS: buildS}, nil
}

// load mirrors WCC.Setup on sharded storage, as the differential suite does.
func (s *shardSolver) load() error {
	for v := range s.st.Vertices {
		s.st.Vertices[v] = uint64(v)
	}
	if err := s.st.FillValues(^uint64(0)); err != nil {
		return err
	}
	s.e.Frontier().ScheduleAll()
	return nil
}

func (s *shardSolver) solve() (counters, error) {
	res, err := s.e.Run(s.pr.algo.Update)
	return counters{converged: res.Converged, iterations: res.Iterations, updates: res.Updates, more: map[string]float64{
		"build_s": s.buildS,
	}}, err
}

func (s *shardSolver) words() []uint64 { return s.st.Vertices }

func (s *shardSolver) close() {
	s.e.Close()
	os.RemoveAll(s.dir)
}
