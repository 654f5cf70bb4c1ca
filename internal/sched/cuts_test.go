package sched

import (
	"math/rand"
	"testing"

	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
)

// hubsFirstRMAT is an R-MAT graph relabelled in descending-degree order, the
// label layout under which equal-count blocks are as unbalanced as the
// degree skew can make them.
func hubsFirstRMAT(tb testing.TB, n, m int, seed uint64) *graph.Graph {
	tb.Helper()
	g, err := gen.RMAT(n, m, gen.DefaultRMAT, seed)
	if err != nil {
		tb.Fatal(err)
	}
	if g, err = graph.Relabel(g, graph.DegreeDescOrder(g)); err != nil {
		tb.Fatal(err)
	}
	return g
}

// randomDegreeGraph gives each vertex a random out-degree drawn from a
// heavy-tailed distribution, with random targets.
func randomDegreeGraph(tb testing.TB, n int, seed int64) *graph.Graph {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	var es []graph.Edge
	for v := 0; v < n; v++ {
		d := int(1 / (r.Float64() + 0.02)) // 1 .. 50, mostly small
		if r.Intn(4) == 0 {
			d = 0
		}
		for i := 0; i < d; i++ {
			if u := r.Intn(n); u != v {
				es = append(es, graph.Edge{Src: uint32(v), Dst: uint32(u)})
			}
		}
	}
	g, err := graph.Build(es, graph.Options{NumVertices: n})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// ascendingSubset returns the vertices of [0, n) kept with probability keep,
// ascending.
func ascendingSubset(n int, keep float64, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	var items []int
	for v := 0; v < n; v++ {
		if r.Float64() < keep {
			items = append(items, v)
		}
	}
	return items
}

// checkCuts asserts Cuts' contract for one input: p+1 non-decreasing
// boundaries from 0 to n, at most min(p, n) non-empty blocks, and each of
// those blocks' cost within one item's cost of its 1/min(p, n) share. Costs
// are exact int64s in units of 1/(n·deg(S)): an item costs deg(S) + n·deg(v)
// (1 when deg(S) = 0), so the set costs 2·n·deg(S) (n).
func checkCuts(t *testing.T, label string, g *graph.Graph, items []int, p int, cuts []int) {
	t.Helper()
	n := len(items)
	if len(cuts) != p+1 || cuts[0] != 0 || cuts[p] != n {
		t.Fatalf("%s: cuts %v, want %d boundaries from 0 to %d", label, cuts, p+1, n)
	}
	for w := 0; w < p; w++ {
		if cuts[w] > cuts[w+1] {
			t.Fatalf("%s: cuts decrease at %d: %v", label, w, cuts)
		}
	}
	eff := min(p, n)
	if eff == 0 {
		return
	}
	if cuts[eff] != n {
		t.Fatalf("%s: %d items cut over more than %d blocks: %v", label, n, eff, cuts)
	}
	var degS int64
	for _, v := range items {
		degS += int64(g.Degree(uint32(v)))
	}
	cost := func(v int) int64 {
		if degS == 0 {
			return 1
		}
		return degS + int64(n)*int64(g.Degree(uint32(v)))
	}
	var total, maxItem int64
	for _, v := range items {
		total += cost(v)
		maxItem = max(maxItem, cost(v))
	}
	for w := 0; w < eff; w++ {
		var block int64
		for _, v := range items[cuts[w]:cuts[w+1]] {
			block += cost(v)
		}
		// |block/total − 1/eff| ≤ maxItem/total, cleared of denominators.
		if dev := int64(eff)*block - total; dev > int64(eff)*maxItem || -dev > int64(eff)*maxItem {
			t.Fatalf("%s: block %d costs %d of %d, more than one item (%d) off the 1/%d share",
				label, w, block, total, maxItem, eff)
		}
	}
}

func TestCutsBalanceRandomDegrees(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := randomDegreeGraph(t, 500, seed)
		items := ascendingSubset(g.N(), 0.6, seed)
		for _, p := range []int{1, 2, 3, 4, 7, 16} {
			checkCuts(t, "random", g, items, p, Cuts(nil, g, items, p))
		}
	}
}

func TestCutsBalanceStar(t *testing.T) {
	g, err := gen.Star(1000)
	if err != nil {
		t.Fatal(err)
	}
	all := ascendingSubset(g.N(), 1, 0)
	for _, p := range []int{1, 2, 3, 4, 7} {
		checkCuts(t, "star", g, all, p, Cuts(nil, g, all, p))
		checkCuts(t, "star spokes", g, all[1:], p, Cuts(nil, g, all[1:], p))
	}
}

// On a hubs-first R-MAT the equal-count cut gives worker 0 most of the
// edges; the balanced cut must not, and must still satisfy the contract.
func TestCutsBalanceHubsFirstRMAT(t *testing.T) {
	g := hubsFirstRMAT(t, 4096, 32768, 11)
	all := ascendingSubset(g.N(), 1, 0)
	for _, p := range []int{2, 3, 4, 7} {
		cuts := Cuts(nil, g, all, p)
		checkCuts(t, "hubs-first", g, all, p, cuts)
		checkCuts(t, "hubs-first subset", g, all[:g.N()/3], p, Cuts(nil, g, all[:g.N()/3], p))
		degOf := func(block []int) (d int) {
			for _, v := range block {
				d += g.Degree(uint32(v))
			}
			return d
		}
		if count, cut := degOf(Block(all, 0, p)), degOf(all[cuts[0]:cuts[1]]); cut >= count {
			t.Fatalf("p=%d: balanced block 0 has %d incident edges, equal-count block %d", p, cut, count)
		}
	}
}

// With no edges every item costs the same, and the cut is Fig. 1's
// equal-count geometry over min(p, n) workers, exactly.
func TestCutsZeroDegreeMatchesBlock(t *testing.T) {
	empty, err := graph.Build(nil, graph.Options{NumVertices: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{nil, empty} {
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			items := ascendingSubset(n, 1, 0)
			for _, p := range []int{1, 2, 3, 4, 7} {
				cuts := Cuts(nil, g, items, p)
				eff := min(p, n)
				for w := 0; w < eff; w++ {
					want := Block(items, w, eff)
					if got := items[cuts[w]:cuts[w+1]]; len(got) != len(want) || (len(got) > 0 && got[0] != want[0]) {
						t.Fatalf("g=%v n=%d p=%d block %d: %v, want %v", g != nil, n, p, w, got, want)
					}
				}
				if cuts[eff] != n || cuts[p] != n {
					t.Fatalf("g=%v n=%d p=%d: trailing cuts %v", g != nil, n, p, cuts)
				}
			}
		}
	}
}

func TestCutsMoreWorkersThanItems(t *testing.T) {
	g := hubsFirstRMAT(t, 64, 512, 2)
	for _, n := range []int{0, 1, 2, 3} {
		items := ascendingSubset(n, 1, 0)
		cuts := Cuts(nil, g, items, 8)
		checkCuts(t, "p>n", g, items, 8, cuts)
		if n == 1 && cuts[1] != 1 {
			t.Fatalf("a single item must land on worker 0: %v", cuts)
		}
	}
}

// |S|·deg(S) exceeds 2^31 here, so cut arithmetic in a 32-bit int would
// wrap; run under GOARCH=386 to exercise it.
func TestCutsLargeProductDoesNotOverflow(t *testing.T) {
	g, err := gen.Star(50000)
	if err != nil {
		t.Fatal(err)
	}
	items := ascendingSubset(g.N(), 1, 0)
	if product := int64(len(items)) * int64(2*g.M()); product <= 1<<31 {
		t.Fatalf("|S|·deg(S) = %d does not exceed 2^31", product)
	}
	for _, p := range []int{2, 3, 4} {
		checkCuts(t, "large", g, items, p, Cuts(nil, g, items, p))
		checkCuts(t, "large spokes", g, items[1:], p, Cuts(nil, g, items[1:], p))
	}
}

// Cuts reuses a large-enough dst and allocates nothing then.
func TestCutsReusesDst(t *testing.T) {
	g := hubsFirstRMAT(t, 256, 2048, 9)
	items := ascendingSubset(g.N(), 1, 0)
	dst := make([]int, 0, 5)
	if got := Cuts(dst, g, items, 4); &got[0] != &dst[:1][0] {
		t.Fatal("Cuts reallocated a dst with room for p+1 boundaries")
	}
	if avg := testing.AllocsPerRun(20, func() { dst = Cuts(dst, g, items, 4) }); avg != 0 {
		t.Fatalf("Cuts allocates %.1f per call with a reused dst", avg)
	}
}
