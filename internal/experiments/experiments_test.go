package experiments

import (
	"testing"
	"time"

	"ndgraph/internal/gen"
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
	cfg.NoAligned = raceEnabled
	cells, err := Fig3(cfg)
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
	if want := 4 * len(cfg.Epsilons); len(ii) != want {
		t.Fatalf("Table II rows = %d, want 4 pairs × %d ε", len(ii), len(cfg.Epsilons))
	}
	if want := 6 * len(cfg.Epsilons); len(iii) != want {
		t.Fatalf("Table III rows = %d, want C(4,2)=6 pairs × %d ε", len(iii), len(cfg.Epsilons))
	}
	// DE vs DE must be perfectly reproducible: every pair's difference
	// degree is |V|.
	g, err := synth(cfg, gen.WebGoogle)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.N())
	for _, row := range ii {
		if row.Pair == "DE vs. DE" && (row.Q1 != n || row.Q3 != n || row.Mean != n) {
			t.Fatalf("DE vs DE at ε=%v: %+v, want every pair = %v (identical orderings)", row.Epsilon, row, n)
		}
		if row.Pairs != cfg.Runs*(cfg.Runs-1)/2 {
			t.Fatalf("%s: %d pairs, want C(%d,2)", row.Pair, row.Pairs, cfg.Runs)
		}
	}
	for _, row := range iii {
		if row.Pairs != cfg.Runs*cfg.Runs {
			t.Fatalf("%s: %d pairs, want %d²", row.Pair, row.Pairs, cfg.Runs)
		}
	}
	for _, row := range append(ii, iii...) {
		if row.Q1 < 0 || row.Q1 > row.Median || row.Median > row.Q3 || row.Q3 > n {
			t.Fatalf("%s at ε=%v: quartiles %v/%v/%v out of order or range", row.Pair, row.Epsilon, row.Q1, row.Median, row.Q3)
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
	cfg.NoAligned = true
	cells, err := Fig3(cfg)
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
		if r.DetEvents == 0 || r.NoSyncEvents == 0 {
			t.Fatalf("%s/P%d: empty trace recorded: %+v", r.Graph, r.Threads, r)
		}
	}
}

func TestNoSyncStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine sweep")
	}
	rows, err := NoSyncStudy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 graphs x 3 engines x 2 thread counts.
	if want := 4 * len(NoSyncEngines()) * 2; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Graph == "" || r.Time <= 0 || r.Updates == 0 {
			t.Fatalf("row %+v did no work", r)
		}
		if r.Engine != "nosync" && (r.Steals != 0 || r.IdleTransitions != 0) {
			t.Fatalf("row %+v reports steals for a non-stealing engine", r)
		}
	}
}
