package netdist

import "testing"

func TestNewTable(t *testing.T) {
	tab, err := NewTable(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Parts() != 4 || tab.N() != 10 {
		t.Fatalf("parts=%d n=%d", tab.Parts(), tab.N())
	}
	total := 0
	for k := 0; k < tab.Parts(); k++ {
		lo, hi := tab.Range(k)
		if hi < lo {
			t.Fatalf("part %d: inverted range [%d,%d)", k, lo, hi)
		}
		total += int(hi - lo)
		for v := lo; v < hi; v++ {
			if tab.OwnerOf(v) != k {
				t.Fatalf("OwnerOf(%d) = %d, want %d", v, tab.OwnerOf(v), k)
			}
		}
	}
	if total != 10 {
		t.Fatalf("ranges cover %d vertices, want 10", total)
	}
}

func TestNewTableShrinksForTinyGraphs(t *testing.T) {
	tab, err := NewTable(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Parts() > 2 {
		t.Fatalf("parts=%d for a 2-vertex graph", tab.Parts())
	}
}

func TestTableFromStartsRejectsMalformed(t *testing.T) {
	for _, starts := range [][]uint32{
		nil,
		{0},
		{1, 5, 10},    // must start at 0
		{0, 10, 5, 0}, // not monotone
	} {
		if _, err := TableFromStarts(starts); err == nil {
			t.Errorf("TableFromStarts(%v) accepted", starts)
		}
	}
	tab, err := TableFromStarts([]uint32{0, 5, 5, 10})
	if err != nil {
		t.Fatalf("empty middle partition rejected: %v", err)
	}
	if lo, hi := tab.Range(1); lo != 5 || hi != 5 {
		t.Fatalf("empty partition range [%d,%d)", lo, hi)
	}
}
