package graph

import (
	"testing"

	"ndgraph/internal/rng"
)

func randGraph(t testing.TB, seed uint64, n, m int) *Graph {
	t.Helper()
	r := rng.New(seed)
	es := make([]Edge, m)
	for i := range es {
		es[i] = Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
	}
	g, err := Build(es, Options{NumVertices: n})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRelabelIdentity(t *testing.T) {
	g := randGraph(t, 1, 30, 120)
	perm := make([]uint32, g.N())
	for i := range perm {
		perm[i] = uint32(i)
	}
	r, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if r.M() != g.M() {
		t.Fatal("identity relabel changed edge count")
	}
	for v := uint32(0); int(v) < g.N(); v++ {
		a, b := g.OutNeighbors(v), r.OutNeighbors(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("identity relabel changed adjacency")
			}
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := randGraph(t, 2, 40, 200)
	r := rng.New(3)
	perm := make([]uint32, g.N())
	for i, p := range r.Perm(g.N()) {
		perm[i] = uint32(p)
	}
	rg, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := rg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degrees transfer through the permutation.
	for v := uint32(0); int(v) < g.N(); v++ {
		if g.OutDegree(v) != rg.OutDegree(perm[v]) || g.InDegree(v) != rg.InDegree(perm[v]) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	// Every edge maps.
	for _, e := range g.Edges() {
		if _, ok := rg.FindEdge(perm[e.Src], perm[e.Dst]); !ok {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestRelabelRejectsBadPerms(t *testing.T) {
	g := randGraph(t, 4, 10, 30)
	if _, err := Relabel(g, []uint32{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	dup := make([]uint32, g.N())
	for i := range dup {
		dup[i] = 0
	}
	if _, err := Relabel(g, dup); err == nil {
		t.Error("duplicate permutation accepted")
	}
	big := make([]uint32, g.N())
	for i := range big {
		big[i] = uint32(i)
	}
	big[0] = uint32(g.N())
	if _, err := Relabel(g, big); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

func TestDegreeDescOrder(t *testing.T) {
	g := randGraph(t, 5, 50, 400)
	perm := DegreeDescOrder(g)
	rg, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	// Degrees must be non-increasing in the new label order.
	for v := 1; v < rg.N(); v++ {
		if rg.Degree(uint32(v-1)) < rg.Degree(uint32(v)) {
			t.Fatalf("degree order violated at %d: %d < %d", v, rg.Degree(uint32(v-1)), rg.Degree(uint32(v)))
		}
	}
}

func TestDegreeInterleaveOrder(t *testing.T) {
	g := randGraph(t, 6, 64, 512)
	const p = 4
	perm := DegreeInterleaveOrder(g, p)
	rg, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	// The heaviest vertex of each of the p blocks should be comparable:
	// the interleave deals hubs round-robin, so the total degree mass per
	// block is roughly balanced.
	blockMass := make([]int, p)
	per := rg.N() / p
	for v := 0; v < per*p; v++ {
		blockMass[v/per] += rg.Degree(uint32(v))
	}
	min, max := blockMass[0], blockMass[0]
	for _, m := range blockMass {
		if m < min {
			min = m
		}
		if m > max {
			max = m
		}
	}
	if min == 0 || float64(max)/float64(min) > 1.6 {
		t.Fatalf("interleave left unbalanced blocks: %v", blockMass)
	}
	// Contrast: degree-desc order concentrates mass in block 0.
	dg, err := Relabel(g, DegreeDescOrder(g))
	if err != nil {
		t.Fatal(err)
	}
	descMass := make([]int, p)
	for v := 0; v < per*p; v++ {
		descMass[v/per] += dg.Degree(uint32(v))
	}
	if descMass[0] <= descMass[p-1] {
		t.Fatalf("degree-desc order did not concentrate hubs: %v", descMass)
	}
}

func TestDegreeInterleaveOrderEdgeCases(t *testing.T) {
	g := randGraph(t, 7, 10, 20)
	perm := DegreeInterleaveOrder(g, 0) // p < 1 clamps to 1
	if _, err := Relabel(g, perm); err != nil {
		t.Fatal(err)
	}
}
