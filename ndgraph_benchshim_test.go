package ndgraph_test

import (
	"math"
	"os"
	"strings"
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

// The nosync names replay bench/tier_nosync.go's call sequence: a seed
// engine set up once, LoadFrom before every solve, and the core engine's
// NoSync scheduler admitted by the certificate. Two solves from the same
// seed reach the union-find labels, and a seed on another graph is refused.
func TestNoSyncShimReplaysBenchRow(t *testing.T) {
	g, err := ndgraph.GenRMAT(500, 3000, ndgraph.DefaultRMAT, 78)
	if err != nil {
		t.Fatal(err)
	}
	wcc := ndgraph.NewWCC()
	cert, err := ndgraph.CertificateFor("update", wcc.Name())
	if err != nil {
		t.Fatal(err)
	}
	seed, err := ndgraph.NewEngine(g, ndgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wcc.Setup(seed)
	if _, err := ndgraph.NewNoSyncExecutor(g, ndgraph.NoSyncOptions{Threads: 2, Mode: ndgraph.ModeAtomic}); err == nil {
		t.Fatal("NewNoSyncExecutor built an engine without a certificate")
	}
	x, err := ndgraph.NewNoSyncExecutor(g, ndgraph.NoSyncOptions{Threads: 4, Mode: ndgraph.ModeAtomic, Certificate: cert})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	want := algorithms.ReferenceWCC(g)
	for solve := 0; solve < 2; solve++ {
		if err := x.LoadFrom(seed); err != nil {
			t.Fatal(err)
		}
		res, err := x.Run(wcc.Update)
		if err != nil || !res.Converged {
			t.Fatalf("solve %d: %v (converged=%v)", solve, err, res.Converged)
		}
		for v := range want {
			if uint32(x.Vertices[v]) != want[v] {
				t.Fatalf("solve %d: label[%d] = %d, want %d", solve, v, x.Vertices[v], want[v])
			}
		}
	}
	other, err := ndgraph.GenRMAT(500, 3000, ndgraph.DefaultRMAT, 78)
	if err != nil {
		t.Fatal(err)
	}
	otherSeed, err := ndgraph.NewEngine(other, ndgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.LoadFrom(otherSeed); err == nil {
		t.Fatal("cross-graph LoadFrom accepted")
	}
}

// NewAsyncExecutor admits with the verdict the shim builds, and that
// verdict says where it came from.
func TestAsyncShimVerdictIsLabelled(t *testing.T) {
	g, err := ndgraph.GenRMAT(100, 400, ndgraph.DefaultRMAT, 79)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ndgraph.NewAsyncExecutor(g, ndgraph.AsyncOptions{Threads: 2, Mode: ndgraph.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	v := x.Options().Verdict
	if v == nil || v.Source != "bench shim" || len(v.Reasons) == 0 || !strings.Contains(v.Reasons[0], "unadmitted") {
		t.Fatalf("async-chan verdict = %+v, want the shim's labelled ticket", v)
	}
}

// runAsyncShim replays bench/tier_asyncchan.go's call sequence: a seed
// engine set up by a, an executor from NewAsyncExecutor (no certificate),
// LoadFrom, and one Run to quiescence.
func runAsyncShim(t *testing.T, a ndgraph.Algorithm, g *ndgraph.Graph, threads int) *ndgraph.AsyncExecutor {
	t.Helper()
	seed, err := ndgraph.NewEngine(g, ndgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	a.Setup(seed)
	x, err := ndgraph.NewAsyncExecutor(g, ndgraph.AsyncOptions{Threads: threads, Mode: ndgraph.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	if err := x.LoadFrom(seed); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(a.Update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("threads=%d: did not converge", threads)
	}
	return x
}

func TestAsyncShimWCCIdenticalToReference(t *testing.T) {
	g, err := ndgraph.GenRMAT(400, 2400, ndgraph.DefaultRMAT, 71)
	if err != nil {
		t.Fatal(err)
	}
	wcc := ndgraph.NewWCC()
	want := algorithms.ReferenceWCC(g)
	for _, threads := range []int{1, 4, 8} {
		x := runAsyncShim(t, wcc, g, threads)
		for v := range want {
			if uint32(x.Vertices[v]) != want[v] {
				t.Fatalf("threads=%d: vertex %d = %d, want %d", threads, v, x.Vertices[v], want[v])
			}
		}
	}
}

func TestAsyncShimBFSIdenticalToReference(t *testing.T) {
	g, err := ndgraph.GenGrid(8, 8, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := ndgraph.NewBFS(g, 0)
	dist := b.Distances(runAsyncShim(t, b, g, 4).Engine)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if got := dist[r*8+c]; got != float64(r+c) {
				t.Fatalf("dist[%d,%d] = %v, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestAsyncShimSSSPMatchesDijkstra(t *testing.T) {
	g, err := ndgraph.GenRMAT(300, 1800, ndgraph.DefaultRMAT, 72)
	if err != nil {
		t.Fatal(err)
	}
	s := ndgraph.NewSSSP(g, 1, 9)
	want := algorithms.ReferenceSSSP(g, 1, s.Weights)
	for v, got := range s.Distances(runAsyncShim(t, s, g, 4).Engine) {
		if got != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got, want[v])
		}
	}
}

// A seed engine nobody set up schedules nothing: LoadFrom copies the empty
// scheduled set, and the run converges without an update.
func TestAsyncShimEmptySeedsConverges(t *testing.T) {
	g, err := ndgraph.GenGrid(2, 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := ndgraph.NewEngine(g, ndgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	x, err := ndgraph.NewAsyncExecutor(g, ndgraph.AsyncOptions{Threads: 2, Mode: ndgraph.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.LoadFrom(seed); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(func(ndgraph.VertexView) {})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Updates != 0 {
		t.Fatalf("res = %+v", res)
	}
}
