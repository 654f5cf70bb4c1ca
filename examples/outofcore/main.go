// Out-of-core: runs WCC with the GraphChi-style Parallel Sliding Windows
// engine — the storage architecture of the paper's host system — and
// checks its labels against the in-memory engine's on the same graph.
//
//	go run ./examples/outofcore
package main

import (
	"fmt"
	"log"
	"os"

	"ndgraph"
)

func main() {
	g, err := ndgraph.Synthesize(ndgraph.WebBerkStan, 100, 21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges (web-berkstan analog)\n\n", g.N(), g.M())

	// 1. In-memory nondeterministic WCC.
	wcc := ndgraph.NewWCC()
	memEng, memRes, err := ndgraph.Run(wcc, g, ndgraph.Options{
		Scheduler: ndgraph.Nondeterministic, Threads: 4, Mode: ndgraph.ModeAtomic, MaxIters: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	want := wcc.Components(memEng)
	fmt.Printf("in-memory WCC:   %d iterations, %v\n", memRes.Iterations, memRes.Duration)

	// 2. Out-of-core (PSW) WCC over 4 disk shards.
	dir, err := os.MkdirTemp("", "ndgraph-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := ndgraph.BuildShards(g, dir, 4)
	if err != nil {
		log.Fatal(err)
	}
	usage, err := st.DiskUsage()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sharded to disk: %d shards, %.1f KiB\n", st.NumShards(), float64(usage)/1024)

	for v := range st.Vertices {
		st.Vertices[v] = uint64(v)
	}
	if err := st.FillValues(^uint64(0)); err != nil {
		log.Fatal(err)
	}
	pswEng, err := ndgraph.NewShardEngine(st, ndgraph.ShardOptions{Threads: 4, Mode: ndgraph.ModeAtomic, MaxIters: 1000})
	if err != nil {
		log.Fatal(err)
	}
	pswEng.Frontier().ScheduleAll()
	pswRes, err := pswEng.Run(wcc.Update)
	if err != nil {
		log.Fatal(err)
	}
	for v := range want {
		if uint32(st.Vertices[v]) != want[v] {
			log.Fatalf("PSW label[%d] = %d, in-memory %d", v, st.Vertices[v], want[v])
		}
	}
	fmt.Printf("out-of-core WCC: %d iterations, %v, %.1f KiB read — labels identical\n",
		pswRes.Iterations, pswRes.Duration, float64(pswRes.BytesRead)/1024)
}
