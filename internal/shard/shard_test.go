package shard

import (
	"math"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
)

func buildStorage(t *testing.T, g *graph.Graph, shards int) *Storage {
	t.Helper()
	st, err := Build(g, t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBuildValidation(t *testing.T) {
	g, _ := gen.Ring(8)
	if _, err := Build(nil, t.TempDir(), 2); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Build(g, t.TempDir(), 0); err == nil {
		t.Error("zero shards accepted")
	}
	// More shards than vertices clamps.
	st := buildStorage(t, g, 100)
	if st.NumShards() > g.N() {
		t.Fatalf("shards = %d for %d vertices", st.NumShards(), g.N())
	}
}

func TestIntervalsPartition(t *testing.T) {
	g, err := gen.RMAT(500, 3000, gen.DefaultRMAT, 13)
	if err != nil {
		t.Fatal(err)
	}
	st := buildStorage(t, g, 4)
	ivs := st.Intervals()
	if len(ivs) != 4 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].Lo != 0 || ivs[len(ivs)-1].Hi != uint32(g.N()) {
		t.Fatalf("intervals don't span: %+v", ivs)
	}
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Lo != ivs[i-1].Hi {
			t.Fatalf("gap between intervals %d and %d: %+v", i-1, i, ivs)
		}
	}
	if st.M() != int64(g.M()) {
		t.Fatalf("sharded edges %d, graph has %d", st.M(), g.M())
	}
}

func TestIntervalOf(t *testing.T) {
	g, err := gen.RMAT(300, 1500, gen.DefaultRMAT, 14)
	if err != nil {
		t.Fatal(err)
	}
	st := buildStorage(t, g, 5)
	for v := uint32(0); int(v) < g.N(); v++ {
		i := st.intervalOf(v)
		if !st.intervals[i].Contains(v) {
			t.Fatalf("intervalOf(%d) = %d (%+v)", v, i, st.intervals[i])
		}
	}
}

func TestDiskUsageMatchesEdgeCount(t *testing.T) {
	g, err := gen.RMAT(200, 1000, gen.DefaultRMAT, 15)
	if err != nil {
		t.Fatal(err)
	}
	st := buildStorage(t, g, 3)
	usage, err := st.DiskUsage()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(g.M()) * (recordBytes + valueBytes)
	if usage != want {
		t.Fatalf("disk usage %d, want %d", usage, want)
	}
}

// minLabel re-implements the WCC update inline for direct engine-level
// testing without the algorithms wrapper.
func minLabel(ctx core.VertexView) {
	min := ctx.Vertex()
	for k := 0; k < ctx.InDegree(); k++ {
		if w := ctx.InEdgeVal(k); w < min {
			min = w
		}
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		if w := ctx.OutEdgeVal(k); w < min {
			min = w
		}
	}
	ctx.SetVertex(min)
	for k := 0; k < ctx.InDegree(); k++ {
		if ctx.InEdgeVal(k) > min {
			ctx.SetInEdgeVal(k, min)
		}
	}
	for k := 0; k < ctx.OutDegree(); k++ {
		if ctx.OutEdgeVal(k) > min {
			ctx.SetOutEdgeVal(k, min)
		}
	}
}

func TestPSWWCCMatchesUnionFind(t *testing.T) {
	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.ReferenceWCC(g)
	for _, shards := range []int{1, 2, 4, 7} {
		st := buildStorage(t, g, shards)
		for v := range st.Vertices {
			st.Vertices[v] = uint64(v)
		}
		if err := st.FillValues(^uint64(0)); err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(st, Options{Threads: 2, Mode: edgedata.ModeAtomic})
		if err != nil {
			t.Fatal(err)
		}
		e.Frontier().ScheduleAll()
		res, err := e.Run(minLabel)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("shards=%d: did not converge", shards)
		}
		for v := range want {
			if uint32(st.Vertices[v]) != want[v] {
				t.Fatalf("shards=%d: vertex %d = %d, want %d", shards, v, st.Vertices[v], want[v])
			}
		}
		if res.BytesRead == 0 || res.BytesWritten == 0 {
			t.Fatalf("shards=%d: no I/O accounted: %+v", shards, res)
		}
	}
}

func TestPSWBFSMatchesReference(t *testing.T) {
	g, err := gen.Grid(10, 10, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := buildStorage(t, g, 3)
	inf := math.Float64bits(math.Inf(1))
	for v := range st.Vertices {
		st.Vertices[v] = inf
	}
	st.Vertices[0] = math.Float64bits(0)
	if err := st.FillValues(inf); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(st, Options{Threads: 2, Mode: edgedata.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	e.Frontier().ScheduleNow(0)
	// BFS relaxation with unit weights, written against the view API.
	update := func(ctx core.VertexView) {
		d := math.Float64frombits(ctx.Vertex())
		for k := 0; k < ctx.InDegree(); k++ {
			if c := math.Float64frombits(ctx.InEdgeVal(k)); c < d {
				d = c
			}
		}
		ctx.SetVertex(math.Float64bits(d))
		if math.IsInf(d, 1) {
			return
		}
		for k := 0; k < ctx.OutDegree(); k++ {
			cand := d + 1
			if cand < math.Float64frombits(ctx.OutEdgeVal(k)) {
				ctx.SetOutEdgeVal(k, math.Float64bits(cand))
			}
		}
	}
	res, err := e.Run(update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			got := math.Float64frombits(st.Vertices[r*10+c])
			if got != float64(r+c) {
				t.Fatalf("dist[%d,%d] = %v, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestPSWPageRankCloseToReference(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	st := buildStorage(t, g, 4)
	const eps, damping = 1e-6, 0.85
	for v := range st.Vertices {
		st.Vertices[v] = math.Float64bits(1.0)
	}
	outDeg := make([]int, g.N())
	for v := uint32(0); int(v) < g.N(); v++ {
		outDeg[v] = g.OutDegree(v)
	}
	if err := st.SetEdgeValues(func(src, _ uint32) uint64 {
		return math.Float64bits(1.0 / float64(outDeg[src]))
	}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(st, Options{Threads: 2, Mode: edgedata.ModeAtomic})
	if err != nil {
		t.Fatal(err)
	}
	e.Frontier().ScheduleAll()
	update := func(ctx core.VertexView) {
		sum := 0.0
		for k := 0; k < ctx.InDegree(); k++ {
			sum += math.Float64frombits(ctx.InEdgeVal(k))
		}
		old := math.Float64frombits(ctx.Vertex())
		rank := (1 - damping) + damping*sum
		ctx.SetVertex(math.Float64bits(rank))
		if math.Abs(rank-old) < eps {
			return
		}
		if out := ctx.OutDegree(); out > 0 {
			w := math.Float64bits(rank / float64(out))
			for k := 0; k < out; k++ {
				ctx.SetOutEdgeVal(k, w)
			}
		}
	}
	res, err := e.Run(update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	want := algorithms.ReferencePageRank(g, damping, 1e-10, 10000)
	for v := range want {
		got := math.Float64frombits(st.Vertices[v])
		if math.Abs(got-want[v]) > 1e-3 {
			t.Fatalf("rank[%d] = %v, want %v", v, got, want[v])
		}
	}
}

func TestEngineValidation(t *testing.T) {
	g, _ := gen.Ring(8)
	st := buildStorage(t, g, 2)
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Error("nil storage accepted")
	}
	if _, err := NewEngine(st, Options{Threads: 4, Mode: edgedata.ModeSequential}); err == nil {
		t.Error("parallel sequential mode accepted")
	}
	e, err := NewEngine(st, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil); err == nil {
		t.Error("nil update accepted")
	}
}

func TestEmptyFrontierConverges(t *testing.T) {
	g, _ := gen.Ring(8)
	st := buildStorage(t, g, 2)
	e, err := NewEngine(st, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(minLabel)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Updates != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestValuesPersistAcrossEngines(t *testing.T) {
	// Run WCC halfway, build a new engine over the same storage, finish:
	// on-disk values carry the intermediate state.
	g, err := gen.Ring(128)
	if err != nil {
		t.Fatal(err)
	}
	st := buildStorage(t, g, 3)
	for v := range st.Vertices {
		st.Vertices[v] = uint64(v)
	}
	if err := st.FillValues(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	e1, err := NewEngine(st, Options{Threads: 1, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	e1.Frontier().ScheduleAll()
	if _, err := e1.Run(minLabel); err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(st, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	e2.Frontier().ScheduleAll()
	res, err := e2.Run(minLabel)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("resumed run did not converge")
	}
	for v, w := range st.Vertices {
		if w != 0 {
			t.Fatalf("vertex %d = %d after resume", v, w)
		}
	}
}

func BenchmarkPSWWCC(b *testing.B) {
	g, err := gen.RMAT(1000, 8000, gen.DefaultRMAT, 18)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, err := Build(g, dir, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range st.Vertices {
			st.Vertices[v] = uint64(v)
		}
		if err := st.FillValues(^uint64(0)); err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(st, Options{Threads: 2, Mode: edgedata.ModeAtomic})
		if err != nil {
			b.Fatal(err)
		}
		e.Frontier().ScheduleAll()
		if _, err := e.Run(minLabel); err != nil {
			b.Fatal(err)
		}
	}
}
