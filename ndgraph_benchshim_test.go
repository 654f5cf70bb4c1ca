package ndgraph_test

import (
	"math"
	"testing"

	"ndgraph"
	"ndgraph/internal/algorithms"
)

// AutonomousSSSP is sequential Dijkstra under the name the benchmark's
// autonomous row calls: its distances are ReferenceSSSP's bit for bit,
// +Inf on the vertices the source cannot reach, and Updates counts the
// reachable ones.
func TestAutonomousSSSPMatchesDijkstra(t *testing.T) {
	g, err := ndgraph.GenRMAT(400, 2400, ndgraph.DefaultRMAT, 141)
	if err != nil {
		t.Fatal(err)
	}
	ref := algorithms.NewSSSP(g, 3, 5)
	want := algorithms.ReferenceSSSP(g, 3, ref.Weights)
	dist, res, err := ndgraph.AutonomousSSSP(g, 3, ref.Weights)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	var reachable int64
	for v := range want {
		if math.Float64bits(dist[v]) != math.Float64bits(want[v]) {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
		if !math.IsInf(want[v], 1) {
			reachable++
		}
	}
	if reachable == int64(len(want)) || reachable < 2 {
		t.Fatalf("%d of %d vertices reachable: the graph must have both kinds", reachable, len(want))
	}
	if res.Updates != reachable {
		t.Fatalf("Updates = %d, want the %d reachable vertices", res.Updates, reachable)
	}
}
