package gen

import (
	"slices"
	"testing"
	"testing/quick"

	"ndgraph/internal/graph"
	"ndgraph/internal/rng"
)

type genResult struct {
	g   *graph.Graph
	err error
}

func r(g *graph.Graph, err error) genResult { return genResult{g, err} }

func validate(t *testing.T, res genResult) *graph.Graph {
	t.Helper()
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := res.g.Validate(); err != nil {
		t.Fatal(err)
	}
	return res.g
}

func TestRMATBasic(t *testing.T) {
	g := validate(t, r(RMAT(1000, 8000, DefaultRMAT, 42)))
	if g.N() != 1000 {
		t.Fatalf("N = %d", g.N())
	}
	// Dedup + self-loop drops lose some edges, but most should survive.
	if g.M() < 4000 || g.M() > 8000 {
		t.Fatalf("M = %d, want within (4000, 8000]", g.M())
	}
	st := g.ComputeStats()
	if st.SelfLoops != 0 {
		t.Fatalf("RMAT produced %d self-loops", st.SelfLoops)
	}
	// Heavy tail: the max degree should greatly exceed the average.
	if st.DegreeSkew < 3 {
		t.Fatalf("RMAT degree skew = %v, expected heavy tail", st.DegreeSkew)
	}
}

func TestRMATDeterminism(t *testing.T) {
	a := validate(t, r(RMAT(500, 3000, DefaultRMAT, 7)))
	b := validate(t, r(RMAT(500, 3000, DefaultRMAT, 7)))
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.M(), b.M())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("same seed, different edge %d", i)
		}
	}
	c := validate(t, r(RMAT(500, 3000, DefaultRMAT, 8)))
	ce := c.Edges()
	same := 0
	for i := 0; i < len(ae) && i < len(ce); i++ {
		if ae[i] == ce[i] {
			same++
		}
	}
	if same == len(ae) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATRejectsBadParams(t *testing.T) {
	if _, err := RMAT(0, 10, DefaultRMAT, 1); err == nil {
		t.Error("RMAT(0, ...) accepted")
	}
	if _, err := RMAT(10, -1, DefaultRMAT, 1); err == nil {
		t.Error("RMAT(m=-1) accepted")
	}
	if _, err := RMAT(10, 10, RMATParams{A: 0.9, B: 0.9}, 1); err == nil {
		t.Error("RMAT with probabilities summing to 1.8 accepted")
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := validate(t, r(PreferentialAttachment(2000, 5, 3)))
	if g.N() != 2000 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() < 5000 {
		t.Fatalf("M = %d, too few edges", g.M())
	}
	st := g.ComputeStats()
	if st.MaxInDeg < 20 {
		t.Fatalf("MaxInDeg = %d, expected hubs", st.MaxInDeg)
	}
	if st.SelfLoops != 0 {
		t.Fatal("self-loops present")
	}
}

func TestPreferentialAttachmentRejectsBadParams(t *testing.T) {
	if _, err := PreferentialAttachment(0, 3, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := PreferentialAttachment(10, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := validate(t, r(ErdosRenyi(500, 3000, 9)))
	if g.N() != 500 {
		t.Fatalf("N = %d", g.N())
	}
	st := g.ComputeStats()
	if st.SelfLoops != 0 {
		t.Fatal("ER produced self-loops")
	}
	// ER should be low-skew.
	if st.DegreeSkew > 4 {
		t.Fatalf("ER skew = %v, too high", st.DegreeSkew)
	}
}

func TestBandedLocality(t *testing.T) {
	g := validate(t, r(Banded(1000, 10, 16, 5)))
	if g.N() != 1000 {
		t.Fatalf("N = %d", g.N())
	}
	// Every edge must stay within the band (mod ring wraparound).
	for _, e := range g.Edges() {
		d := int(e.Dst) - int(e.Src)
		if d < 0 {
			d = -d
		}
		wrap := g.N() - d
		if d > 16 && wrap > 16 {
			t.Fatalf("edge %v outside band", e)
		}
	}
	st := g.ComputeStats()
	if st.DegreeSkew > 2.5 {
		t.Fatalf("banded skew = %v, expected quasi-regular", st.DegreeSkew)
	}
}

func TestGrid(t *testing.T) {
	g := validate(t, r(Grid(4, 5, false, 0)))
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	// 4x5 grid: horizontal 4*(5-1)=16, vertical (4-1)*5=15.
	if g.M() != 31 {
		t.Fatalf("M = %d, want 31", g.M())
	}
	b := validate(t, r(Grid(4, 5, true, 0)))
	if b.M() != 62 {
		t.Fatalf("bidirectional M = %d, want 62", b.M())
	}
}

func TestRingChainStarComplete(t *testing.T) {
	ring := validate(t, r(Ring(10)))
	if ring.M() != 10 {
		t.Fatalf("ring M = %d", ring.M())
	}
	for v := uint32(0); v < 10; v++ {
		if ring.OutDegree(v) != 1 || ring.InDegree(v) != 1 {
			t.Fatal("ring not 1-regular")
		}
	}
	chain := validate(t, r(Chain(10)))
	if chain.M() != 9 {
		t.Fatalf("chain M = %d", chain.M())
	}
	star := validate(t, r(Star(11)))
	if star.M() != 20 {
		t.Fatalf("star M = %d", star.M())
	}
	if star.Degree(0) != 20 {
		t.Fatalf("hub degree = %d", star.Degree(0))
	}
	comp := validate(t, r(Complete(6)))
	if comp.M() != 30 {
		t.Fatalf("complete M = %d", comp.M())
	}
}

func TestGeneratorEdgeCases(t *testing.T) {
	for name, f := range map[string]func() error{
		"Ring(0)":       func() error { _, err := Ring(0); return err },
		"Chain(0)":      func() error { _, err := Chain(0); return err },
		"Star(1)":       func() error { _, err := Star(1); return err },
		"Complete(0)":   func() error { _, err := Complete(0); return err },
		"Grid(0,3)":     func() error { _, err := Grid(0, 3, false, 0); return err },
		"Banded bw>=n":  func() error { _, err := Banded(10, 2, 10, 1); return err },
		"ErdosRenyi(1)": func() error { _, err := ErdosRenyi(1, 5, 1); return err },
	} {
		if f() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSynthesizeAllDatasets(t *testing.T) {
	for _, d := range AllDatasets() {
		g, err := Synthesize(d, 200, 1)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		pv, _ := d.PaperSize()
		wantN := pv / 200
		if g.N() != wantN {
			t.Errorf("%s: N = %d, want %d", d, g.N(), wantN)
		}
		st := g.ComputeStats()
		t.Logf("%s (scale 200): V=%d E=%d maxIn=%d maxOut=%d skew=%.1f",
			d, st.Vertices, st.Edges, st.MaxInDeg, st.MaxOutDeg, st.DegreeSkew)
	}
}

func TestSynthesizeStructuralClasses(t *testing.T) {
	// Web/social analogs must be skewed, cage analog quasi-regular.
	web, err := Synthesize(WebBerkStan, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	cage, err := Synthesize(Cage15, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws, cs := web.ComputeStats(), cage.ComputeStats()
	if ws.DegreeSkew < 2*cs.DegreeSkew {
		t.Fatalf("web skew %.1f not clearly above cage skew %.1f", ws.DegreeSkew, cs.DegreeSkew)
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	a, err := Synthesize(WebGoogle, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(WebGoogle, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() || a.N() != b.N() {
		t.Fatal("Synthesize not deterministic")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(WebGoogle, 0, 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := Synthesize(WebGoogle, 1<<30, 1); err == nil {
		t.Error("absurd scale accepted")
	}
}

func TestParseDataset(t *testing.T) {
	for _, d := range AllDatasets() {
		got, err := ParseDataset(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDataset(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDataset("nope"); err == nil {
		t.Error("ParseDataset accepted unknown name")
	}
	if Dataset(99).String() == "" {
		t.Error("unknown dataset String is empty")
	}
}

func TestRMATQuickValid(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := RMAT(128, 512, DefaultRMAT, seed)
		if err != nil {
			return false
		}
		return g.Validate() == nil && g.N() == 128
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRMATChunksAgree: the parallel draw keeps the sequential edge list
// whatever the chunk count, including no edges, one edge, and fewer edges
// than chunks.
func TestRMATChunksAgree(t *testing.T) {
	const levels = 10
	relabel := make([]uint32, 1<<levels)
	for i := range relabel {
		relabel[i] = uint32(i)
	}
	for _, m := range []int{0, 1, 3, 7, 1000} {
		for _, p := range []RMATParams{DefaultRMAT, {A: 0.45, B: 0.22, C: 0.22, D: 0.11}} {
			per := 1
			if p.NoiseAmp > 0 {
				per = 2
			}
			want := rmatEdges(900, m, p, levels, per, relabel, rng.New(uint64(m)), 1)
			for _, chunks := range []int{2, 8, 64} {
				got := rmatEdges(900, m, p, levels, per, relabel, rng.New(uint64(m)), chunks)
				if !slices.Equal(got, want) {
					t.Fatalf("m=%d noise=%v chunks=%d: %d edges differ from the sequential %d", m, p.NoiseAmp, chunks, len(got), len(want))
				}
			}
		}
	}
	for _, m := range []int{0, 1} {
		g := validate(t, r(RMAT(100, m, DefaultRMAT, 3)))
		if g.M() > m {
			t.Fatalf("RMAT(100, %d) has %d edges", m, g.M())
		}
	}
}

func BenchmarkRMAT100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(16384, 100000, DefaultRMAT, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
