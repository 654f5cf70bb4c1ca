package experiments

import (
	"testing"
	"time"
)

// tinyConfig keeps experiment tests fast: graphs a few hundred to a few
// thousand vertices, two runs, two epsilons.
func tinyConfig() Config {
	return Config{
		Scale:       500,
		Seed:        7,
		Threads:     []int{1, 4},
		Runs:        2,
		Epsilons:    []float64{1e-1, 1e-2},
		PageRankEps: 1e-2,
	}
}

func TestDefaultConfigFillsZeroes(t *testing.T) {
	var c Config
	c.validate()
	d := DefaultConfig()
	if c.Scale != d.Scale || c.Runs != d.Runs || len(c.Threads) != len(d.Threads) {
		t.Fatalf("validate() = %+v", c)
	}
}

func TestGraphsAllDatasets(t *testing.T) {
	gs, err := Graphs(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 {
		t.Fatalf("got %d graphs", len(gs))
	}
	for name, g := range gs {
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
}

func TestTableI(t *testing.T) {
	rows, err := TableI(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SynthV == 0 || r.SynthE == 0 || r.PaperV == 0 {
			t.Fatalf("row %+v has zero sizes", r)
		}
		if r.SynthV != r.PaperV/500 {
			t.Fatalf("%s: SynthV %d != PaperV/scale %d", r.Name, r.SynthV, r.PaperV/500)
		}
	}
}

func TestNewAlgorithmAllNames(t *testing.T) {
	cfg := tinyConfig()
	gs, err := Graphs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := gs["web-google"]
	for _, name := range append(AlgoNames(), "spmv", "coloring") {
		a, err := NewAlgorithm(name, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("NewAlgorithm(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := NewAlgorithm("nope", g, cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestPickSource(t *testing.T) {
	gs, err := Graphs(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range gs {
		src := PickSource(g)
		if g.OutDegree(src) == 0 {
			t.Fatalf("%s: source %d has zero out-degree", name, src)
		}
	}
}

func TestExecKinds(t *testing.T) {
	with := ExecKinds(true)
	without := ExecKinds(false)
	if len(with) != 4 || len(without) != 3 {
		t.Fatalf("kinds = %d / %d", len(with), len(without))
	}
	if with[0].Label != "DE" {
		t.Fatalf("first kind = %q", with[0].Label)
	}
}

func TestFig3SmallGrid(t *testing.T) {
	cfg := tinyConfig()
	cfg.Threads = []int{2}
	cells, err := Fig3(cfg, !raceEnabled)
	if err != nil {
		t.Fatal(err)
	}
	// 4 graphs × 4 algorithms × (1 DE + nNE×1 thread-count).
	kinds := 3
	if raceEnabled {
		kinds = 2
	}
	want := 4 * 4 * (1 + kinds)
	if len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Duration <= 0 {
			t.Fatalf("cell %+v has non-positive duration", c)
		}
		if c.Iterations == 0 || c.Updates == 0 {
			t.Fatalf("cell %+v did no work", c)
		}
	}
}

func TestVarianceTables(t *testing.T) {
	cfg := tinyConfig()
	ii, iii, err := VarianceTables(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ii) != 4 {
		t.Fatalf("Table II rows = %d, want 4", len(ii))
	}
	if len(iii) != 6 {
		t.Fatalf("Table III rows = %d, want C(4,2)=6", len(iii))
	}
	// DE vs DE must be perfectly reproducible: difference degree = |V|.
	gs, err := Graphs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(gs["web-google"].N())
	for _, eps := range cfg.Epsilons {
		if got := ii[0].ByEpsilon[eps]; got != n {
			t.Fatalf("DE vs DE at ε=%v: %v, want %v (identical orderings)", eps, got, n)
		}
	}
	for _, row := range append(ii, iii...) {
		for eps, v := range row.ByEpsilon {
			if v < 0 || v > n {
				t.Fatalf("%s at ε=%v: difference degree %v out of range", row.Pair, eps, v)
			}
		}
	}
}

func TestConflictCensus(t *testing.T) {
	rows, err := ConflictCensus(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*8 {
		t.Fatalf("rows = %d, want 32", len(rows))
	}
	for _, r := range rows {
		switch r.Algo {
		case "pagerank", "sssp", "bfs", "spmv", "labelprop":
			if r.WW != 0 {
				t.Fatalf("%s on %s has WW conflicts: %+v", r.Algo, r.Graph, r)
			}
		case "wcc", "kcore", "coloring":
			if r.WW == 0 {
				t.Fatalf("%s on %s has no WW conflicts: %+v", r.Algo, r.Graph, r)
			}
		}
		switch r.Algo {
		case "coloring", "labelprop":
			if r.Verdict != "not eligible" {
				t.Fatalf("%s verdict = %q", r.Algo, r.Verdict)
			}
		default:
			if r.Verdict == "not eligible" {
				t.Fatalf("%s on %s verdict = %q", r.Algo, r.Graph, r.Verdict)
			}
		}
	}
}

func TestConvergenceSpeed(t *testing.T) {
	rows, err := ConvergenceSpeed(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for _, r := range rows {
		if r.SyncIter == 0 || r.DetIter == 0 || r.NondetIter == 0 {
			t.Fatalf("row %+v has zero iterations", r)
		}
		// The paper's motivation: async (GS) needs no more iterations than
		// sync for the all-scheduled algorithms. Single-source traversals
		// advance one hop per iteration under both, so only compare the
		// all-scheduled ones.
		if r.Algo == "pagerank" || r.Algo == "wcc" {
			if r.DetIter > r.SyncIter {
				t.Fatalf("%s on %s: det iterations %d > sync %d", r.Algo, r.Graph, r.DetIter, r.SyncIter)
			}
		}
	}
}

func TestPureAsyncComparison(t *testing.T) {
	rows, err := PureAsyncComparison(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.BarrierUpdates == 0 || r.PureUpdates == 0 {
			t.Fatalf("row %+v did no work", r)
		}
		if r.BarrierTime <= 0 || r.PureTime <= 0 {
			t.Fatalf("row %+v has missing timings", r)
		}
	}
}

func TestTopKAgreementStudy(t *testing.T) {
	cfg := tinyConfig()
	rows, err := TopKAgreementStudy(cfg, []int{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Epsilons)*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Agreement < 0 || r.Agreement > 1 {
			t.Fatalf("agreement %v out of range", r.Agreement)
		}
	}
}

func TestFig3DurationsPlausible(t *testing.T) {
	cfg := tinyConfig()
	cfg.Threads = []int{1}
	cells, err := Fig3(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Duration > time.Minute {
			t.Fatalf("cell %+v implausibly slow for tiny scale", c)
		}
	}
}

func TestDispatchAblation(t *testing.T) {
	rows, err := DispatchAblation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Duration <= 0 || r.Updates == 0 {
			t.Fatalf("row %+v did no work", r)
		}
		if r.Variant != "static" && r.Variant != "dynamic" {
			t.Fatalf("unexpected variant %q", r.Variant)
		}
	}
}

func TestLabelOrderAblation(t *testing.T) {
	rows, err := LabelOrderAblation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Variant] = true
	}
	for _, v := range []string{"natural", "degree-desc", "degree-interleave"} {
		if !seen[v] {
			t.Fatalf("missing variant %q", v)
		}
	}
}

func TestAmplifierAblation(t *testing.T) {
	rows, err := AmplifierAblation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if !r.ResultsIdentical {
		t.Fatal("amplifier changed WCC results — it must only change interleavings")
	}
}

func TestPSWComparison(t *testing.T) {
	rows, err := PSWComparison(tinyConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Fatalf("%s: PSW results differ from reference", r.Graph)
		}
		if r.PSWBytesRead == 0 {
			t.Fatalf("%s: no PSW I/O recorded", r.Graph)
		}
	}
}

func TestDistComparison(t *testing.T) {
	rows, err := DistComparison(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Fatalf("%s/%s: distributed results differ from reference", r.Graph, r.Algo)
		}
		if r.Messages == 0 {
			t.Fatalf("%s/%s: no messages delivered", r.Graph, r.Algo)
		}
	}
}

func TestFixedPointVariance(t *testing.T) {
	cfg := tinyConfig()
	rows, err := FixedPointVariance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(cfg.Epsilons) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanDiff < 0 || r.Footrule < 0 || r.Footrule > 1 {
			t.Fatalf("row %+v out of range", r)
		}
	}
}

func TestFixedPointOrderingsUnknownAlgo(t *testing.T) {
	cfg := tinyConfig()
	gs, err := Graphs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FixedPointOrderings(gs["web-google"], "wcc", cfg, 1e-2, 4, false); err == nil {
		t.Fatal("non-fixed-point algorithm accepted")
	}
}

func TestPrecisionStudy(t *testing.T) {
	cfg := tinyConfig()
	rows, err := PrecisionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Epsilons)*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Error must shrink (weakly) as ε tightens, per thread count.
	byThreads := map[int][]PrecisionRow{}
	for _, r := range rows {
		byThreads[r.Threads] = append(byThreads[r.Threads], r)
		if r.MaxLInf < 0 || r.MeanLInf > r.MaxLInf+1e-15 {
			t.Fatalf("row %+v inconsistent", r)
		}
	}
	for threads, rs := range byThreads {
		for i := 1; i < len(rs); i++ {
			// Epsilons are ordered loosest-first in tinyConfig.
			if rs[i].MeanLInf > rs[i-1].MeanLInf*3+1e-9 {
				t.Fatalf("threads=%d: error grew sharply with tighter ε: %+v -> %+v", threads, rs[i-1], rs[i])
			}
		}
	}
}

func TestStalenessStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full staleness sweep")
	}
	stale, err := StalenessStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 graphs x 4 thread counts.
	if want := 4 * 4; len(stale) != want {
		t.Fatalf("staleness rows = %d, want %d", len(stale), want)
	}
	for _, r := range stale {
		if !r.ResultsEqual {
			t.Fatalf("%s/P%d: instrumented no-sync WCC fixed point differs from reference", r.Graph, r.Threads)
		}
		if r.Updates == 0 || r.Reads == 0 {
			t.Fatalf("%s/P%d: delay clock observed nothing: %+v", r.Graph, r.Threads, r)
		}
		if r.DelayP50 > r.DelayP99 || r.DelayP99 > r.DelayMax {
			t.Fatalf("%s/P%d: staleness quantiles out of order: %+v", r.Graph, r.Threads, r)
		}
	}
}

func TestNoSyncStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine sweep")
	}
	scale, drift, err := NoSyncStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 graphs x 5 engines x 2 thread counts.
	if want := 4 * len(NoSyncEngines()) * 2; len(scale) != want {
		t.Fatalf("scale rows = %d, want %d", len(scale), want)
	}
	for _, r := range scale {
		if r.Time <= 0 || r.Updates == 0 {
			t.Fatalf("row %+v did no work", r)
		}
		if r.Engine != "nosync" && (r.Steals != 0 || r.IdleTransitions != 0) {
			t.Fatalf("row %+v reports steals for a non-stealing engine", r)
		}
	}
	if len(drift) != 4 {
		t.Fatalf("drift rows = %d, want 4", len(drift))
	}
	for _, r := range drift {
		if !r.ResultsEqual {
			t.Fatalf("%s: no-sync WCC fixed point differs from deterministic reference", r.Graph)
		}
		if r.DetEvents == 0 || r.NoSyncEvents == 0 {
			t.Fatalf("%s: empty trace recorded", r.Graph)
		}
		if r.Report == nil {
			t.Fatalf("%s: missing diff report", r.Graph)
		}
	}
}
