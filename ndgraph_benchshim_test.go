package ndgraph_test

import (
	"math"
	"os"
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

// The shard names replay bench/tier_shard.go's call sequence on the core
// engine: the labels are the union-find components, and nothing is
// written to the shard directory.
func TestShardShimReplaysBenchRow(t *testing.T) {
	g, err := ndgraph.GenRMAT(500, 3000, ndgraph.DefaultRMAT, 77)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := ndgraph.BuildShards(g, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FillValues(0); err == nil {
		t.Fatal("FillValues before NewShardEngine succeeded")
	}
	e, err := ndgraph.NewShardEngine(st, ndgraph.ShardOptions{Threads: 2, Mode: ndgraph.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for v := range st.Vertices {
		st.Vertices[v] = uint64(v)
	}
	if err := st.FillValues(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	e.Frontier().ScheduleAll()
	res, err := e.Run(ndgraph.NewWCC().Update)
	if err != nil || !res.Converged {
		t.Fatalf("run: %v (converged=%v)", err, res.Converged)
	}
	want := algorithms.ReferenceWCC(g)
	for v := range want {
		if uint32(st.Vertices[v]) != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, st.Vertices[v], want[v])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 0 {
		t.Fatalf("shard directory holds %d entries (%v), want none", len(entries), err)
	}
}
