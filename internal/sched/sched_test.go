package sched

import (
	"sync"
	"testing"
	"testing/quick"

	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
)

func TestKindStringParse(t *testing.T) {
	for _, k := range []Kind{Deterministic, Nondeterministic, Synchronous, DIG, NoSync} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted unknown")
	}
	if Kind(42).String() == "" {
		t.Error("unknown Kind String empty")
	}
}

// Block returns the contiguous sub-slice of items assigned to the given
// worker of p workers under the paper's Fig. 1 equal-count dispatch: worker
// i receives positions [i*len/p, (i+1)*len/p). It is the reference the
// pool's RunBlocks and the degree-free case of Cuts are checked against.
func Block(items []int, worker, p int) []int {
	n := len(items)
	lo := worker * n / p
	hi := (worker + 1) * n / p
	return items[lo:hi]
}

func TestBlockPartition(t *testing.T) {
	items := make([]int, 10)
	for i := range items {
		items[i] = i * 10
	}
	// Blocks must be contiguous, disjoint, and cover everything.
	for _, p := range []int{1, 2, 3, 4, 7, 10} {
		covered := 0
		prevEnd := 0
		for w := 0; w < p; w++ {
			b := Block(items, w, p)
			covered += len(b)
			if len(b) > 0 {
				if b[0] != items[prevEnd] {
					t.Fatalf("p=%d worker %d: block not contiguous", p, w)
				}
				prevEnd += len(b)
			}
		}
		if covered != len(items) {
			t.Fatalf("p=%d: blocks cover %d of %d items", p, covered, len(items))
		}
	}
}

// staticDispatches runs items through both static entry points of a
// p-worker pool: RunBlocks (equal counts) and RunCuts with the balanced cut
// over g.
func staticDispatches(g *graph.Graph, items []int, p int, fn func(worker, item int)) {
	pool := NewPool(p)
	defer pool.Close()
	pool.RunBlocks(items, fn)
	pool.RunCuts(items, Cuts(nil, g, items, p), fn)
}

func TestStaticDispatchVisitsAllOnce(t *testing.T) {
	g := hubsFirstRMAT(t, 1000, 8000, 3)
	for _, n := range []int{3, 1000} {
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		for _, p := range []int{1, 2, 4, 16} {
			var mu sync.Mutex
			seen := make(map[int]int)
			staticDispatches(g, items, p, func(_, item int) {
				mu.Lock()
				seen[item]++
				mu.Unlock()
			})
			if len(seen) != n {
				t.Fatalf("n=%d p=%d: visited %d distinct items", n, p, len(seen))
			}
			for item, c := range seen {
				if c != 2 {
					t.Fatalf("n=%d p=%d: item %d visited %d times in two dispatches", n, p, item, c)
				}
			}
		}
	}
}

func TestStaticDispatchSmallLabelFirstWithinWorker(t *testing.T) {
	const n = 256
	g := hubsFirstRMAT(t, n, 2000, 4)
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	pool := NewPool(4)
	defer pool.Close()
	for _, cuts := range [][]int{Cuts(nil, nil, items, 4), Cuts(nil, g, items, 4)} {
		var mu sync.Mutex
		lastPerWorker := map[int]int{}
		pool.RunCuts(items, cuts, func(w, item int) {
			mu.Lock()
			defer mu.Unlock()
			if last, ok := lastPerWorker[w]; ok && last >= item {
				t.Errorf("cuts %v: worker %d processed %d after %d", cuts, w, item, last)
			}
			lastPerWorker[w] = item
		})
	}
}

func TestStaticDispatchEmpty(t *testing.T) {
	g := hubsFirstRMAT(t, 64, 256, 5)
	called := false
	staticDispatches(g, nil, 4, func(_, _ int) { called = true })
	if called {
		t.Fatal("fn called on empty items")
	}
}

func TestSequentialOrder(t *testing.T) {
	items := []int{5, 1, 9}
	var got []int
	Sequential(items, func(w, item int) {
		if w != 0 {
			t.Fatalf("worker = %d", w)
		}
		got = append(got, item)
	})
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("Sequential reordered: %v", got)
		}
	}
}

func TestPiEqualBlocks(t *testing.T) {
	// With nv divisible by p, π(v) = l % (nv/p), the paper's formula.
	nv, p := 100, 4
	for l := 0; l < nv; l++ {
		if got, want := Pi(l, nv, p), l%(nv/p); got != want {
			t.Fatalf("Pi(%d,%d,%d) = %d, want %d", l, nv, p, got, want)
		}
	}
}

func TestPiSingleThread(t *testing.T) {
	for l := 0; l < 10; l++ {
		if Pi(l, 10, 1) != l {
			t.Fatal("Pi with p=1 must be identity")
		}
	}
}

func TestPiUnevenBlocksValid(t *testing.T) {
	// Property: π is the offset within the containing block, so for every
	// worker the π values of its block are 0,1,2,...
	f := func(nvRaw, pRaw uint8) bool {
		nv := int(nvRaw)%200 + 1
		p := int(pRaw)%8 + 1
		items := make([]int, nv)
		for i := range items {
			items[i] = i
		}
		for w := 0; w < p; w++ {
			for off, l := range Block(items, w, p) {
				if Pi(l, nv, p) != off {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSameThread(t *testing.T) {
	nv, p := 100, 4 // blocks of 25
	if !SameThread(0, 24, nv, p) {
		t.Error("0 and 24 should share a thread")
	}
	if SameThread(24, 25, nv, p) {
		t.Error("24 and 25 should not share a thread")
	}
	if !SameThread(3, 99, nv, 1) {
		t.Error("p=1 all share")
	}
}

func TestRelationDefinitions(t *testing.T) {
	nv, p, d := 100, 4, 5 // blocks of 25
	// Same thread: strict π order.
	if Relation(3, 7, nv, p, d) != Before {
		t.Error("same-thread π(v)<π(u) should be Before")
	}
	if Relation(7, 3, nv, p, d) != After {
		t.Error("same-thread π(v)>π(u) should be After")
	}
	// Different threads, π gap >= d: ordered.
	// v=0 (π=0, thread 0), u=35 (π=10, thread 1): π(u)-π(v)=10 >= 5.
	if Relation(0, 35, nv, p, d) != Before {
		t.Error("cross-thread with large positive gap should be Before")
	}
	if Relation(35, 0, nv, p, d) != After {
		t.Error("cross-thread with large negative gap should be After")
	}
	// Different threads, |gap| < d: overlap.
	// v=0 (π=0), u=27 (π=2): |2-0| = 2 < 5.
	if Relation(0, 27, nv, p, d) != Overlap {
		t.Error("cross-thread with small gap should be Overlap")
	}
	if Overlap.String() != "∥" || Before.String() != "≺" || After.String() != "≻" {
		t.Error("Order.String mismatch")
	}
	if Order(9).String() != "?" {
		t.Error("unknown Order String")
	}
}

func TestRelationAntisymmetry(t *testing.T) {
	f := func(vRaw, uRaw, pRaw, dRaw uint8) bool {
		nv := 128
		v, u := int(vRaw)%nv, int(uRaw)%nv
		p := int(pRaw)%8 + 1
		d := int(dRaw)%10 + 1
		if v == u {
			return true
		}
		rv, ru := Relation(v, u, nv, p, d), Relation(u, v, nv, p, d)
		switch rv {
		case Before:
			return ru == After
		case After:
			return ru == Before
		default:
			return ru == Overlap
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDIGRoundsValid(t *testing.T) {
	g, err := gen.RMAT(300, 2000, gen.DefaultRMAT, 161)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]int, g.N())
	for i := range items {
		items[i] = i
	}
	rounds := DIGRounds(g, items)
	if !validDIGRounds(g, items, rounds) {
		t.Fatal("DIG rounds invalid")
	}
	if len(rounds) < 2 {
		t.Fatalf("only %d rounds on a dense graph", len(rounds))
	}
}

func TestDIGRoundsDeterministic(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 600, 162)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]int, g.N())
	for i := range items {
		items[i] = i
	}
	a := DIGRounds(g, items)
	b := DIGRounds(g, items)
	if len(a) != len(b) {
		t.Fatal("round counts differ")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("round sizes differ")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("round contents differ")
			}
		}
	}
}

func TestDIGRoundsSubsetScheduling(t *testing.T) {
	// With only non-adjacent vertices scheduled, one round suffices even
	// though the whole graph needs many colors.
	g, err := gen.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	rounds := DIGRounds(g, []int{3})
	if len(rounds) != 1 || len(rounds[0]) != 1 {
		t.Fatalf("singleton schedule rounds = %v", rounds)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rounds = DIGRounds(g, all)
	if len(rounds) != 8 {
		t.Fatalf("complete graph rounds = %d, want 8", len(rounds))
	}
	if !validDIGRounds(g, all, rounds) {
		t.Fatal("invalid")
	}
}

func TestDIGRoundsEmpty(t *testing.T) {
	g, err := gen.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if DIGRounds(g, nil) != nil {
		t.Fatal("empty items should give nil rounds")
	}
}

func TestValidateDIGRoundsRejects(t *testing.T) {
	g, err := gen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	items := []int{0, 1, 2}
	// Adjacent vertices 0,1 in one round: invalid.
	if validDIGRounds(g, items, [][]int{{0, 1}, {2}}) {
		t.Fatal("adjacent round accepted")
	}
	// Missing item.
	if validDIGRounds(g, items, [][]int{{0}, {2}}) {
		t.Fatal("missing item accepted")
	}
	// Duplicate item.
	if validDIGRounds(g, items, [][]int{{0}, {0}, {1}, {2}}) {
		t.Fatal("duplicate accepted")
	}
}

// validDIGRounds checks the invariants: every item appears exactly
// once, and no round contains two adjacent vertices.
func validDIGRounds(g *graph.Graph, items []int, rounds [][]int) bool {
	seen := make(map[int]bool, len(items))
	for _, round := range rounds {
		inRound := make(map[uint32]bool, len(round))
		for _, vi := range round {
			if seen[vi] {
				return false
			}
			seen[vi] = true
			inRound[uint32(vi)] = true
		}
		for _, vi := range round {
			v := uint32(vi)
			for _, u := range g.OutNeighbors(v) {
				if u != v && inRound[u] {
					return false
				}
			}
		}
	}
	return len(seen) == len(items)
}
