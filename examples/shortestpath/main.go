// Shortest paths on a road-network-like grid, under every execution model
// the framework provides: deterministic, nondeterministic (pull mode,
// Theorem 1/2), barrier-free (admitted by SSSP's eligibility certificate),
// and push mode with CAS. All four must produce identical distances
// because SSSP is monotone with an absolute convergence condition.
//
//	go run ./examples/shortestpath
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"ndgraph"
)

const (
	rows, cols = 40, 40
	seed       = 99
)

func main() {
	g, err := ndgraph.GenGrid(rows, cols, true, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid: %dx%d (%d vertices, %d edges)\n\n", rows, cols, g.N(), g.M())

	source := uint32(0)
	sssp := ndgraph.NewSSSP(g, source, seed)

	// 1. Deterministic pull-mode baseline.
	detEng, detRes, err := ndgraph.Run(sssp, g, ndgraph.Options{Scheduler: ndgraph.Deterministic, MaxIters: 1000})
	if err != nil {
		log.Fatal(err)
	}
	ref := sssp.Distances(detEng)
	fmt.Printf("deterministic pull:  %4d iterations  %v\n", detRes.Iterations, detRes.Duration)

	// 2. Nondeterministic pull-mode (racy, per-operation atomicity only).
	ndEng, ndRes, err := ndgraph.Run(sssp, g, ndgraph.Options{
		Scheduler: ndgraph.Nondeterministic, Threads: 8, Mode: ndgraph.ModeAtomic, MaxIters: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	check("nondeterministic pull", ref, sssp.Distances(ndEng))
	fmt.Printf("nondeterministic:    %4d iterations  %v\n", ndRes.Iterations, ndRes.Duration)

	// 3. Barrier-free execution. NoSync admits only algorithms the paper's
	// theorems cover; the embedded certificate proves SSSP is one.
	cert, err := ndgraph.CertificateFor("update", "sssp")
	if err != nil {
		log.Fatal(err)
	}
	verdict, err := cert.Verdict()
	if err != nil {
		log.Fatal(err)
	}
	nsEng, nsRes, err := ndgraph.Run(sssp, g, ndgraph.Options{
		Scheduler: ndgraph.NoSync, Threads: 8, Mode: ndgraph.ModeAtomic, Verdict: verdict,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nsEng.Close()
	check("barrier-free", ref, sssp.Distances(nsEng))
	fmt.Printf("barrier-free:        %4d updates     %v\n", nsRes.Updates, nsRes.Duration)

	// 4. Push mode with CAS (Ligra-style): the hybrid engine under a policy
	// that never pulls.
	h, err := ndgraph.NewHybridEngine(g, 8)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	h.Policy = func(ndgraph.HybridStats) ndgraph.HybridDirection { return ndgraph.HybridPush }
	pushRes, err := h.Run(context.Background(), ndgraph.SSSPKernel(source, sssp.Weights))
	if err != nil {
		log.Fatal(err)
	}
	check("push mode (CAS)", ref, floats(h.Vertices))
	fmt.Printf("push mode (CAS):     %4d iterations  %v\n\n", pushRes.Iterations, pushRes.Duration)

	fmt.Println("all four execution models agree; sample distances from corner (0,0):")
	for _, cell := range [][2]int{{0, 0}, {0, cols - 1}, {rows - 1, 0}, {rows - 1, cols - 1}, {rows / 2, cols / 2}} {
		v := cell[0]*cols + cell[1]
		fmt.Printf("  (%2d,%2d): %g\n", cell[0], cell[1], ref[v])
	}
}

func floats(words []uint64) []float64 {
	out := make([]float64, len(words))
	for v, w := range words {
		out[v] = math.Float64frombits(w)
	}
	return out
}

func check(name string, want, got []float64) {
	for v := range want {
		if want[v] != got[v] {
			log.Fatalf("%s: dist[%d] = %v, want %v", name, v, got[v], want[v])
		}
	}
}
