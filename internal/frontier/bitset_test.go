package frontier

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if !b.Empty() {
		t.Fatal("new bitset not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("Test(%d) false after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("Test(64) true after Clear")
	}
	if b.Count() != 7 {
		t.Fatalf("Count = %d, want 7", b.Count())
	}
}

func TestBitsetSetAllRespectsLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 200} {
		b := NewBitset(n)
		b.SetAll()
		if b.Count() != n {
			t.Fatalf("SetAll on size %d: Count = %d", n, b.Count())
		}
	}
}

func TestBitsetClearAll(t *testing.T) {
	b := NewBitset(100)
	b.SetAll()
	b.ClearAll()
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("ClearAll left members")
	}
}

func TestSetAtomicReportsNewness(t *testing.T) {
	b := NewBitset(10)
	if !b.SetAtomic(3) {
		t.Fatal("first SetAtomic(3) returned false")
	}
	if b.SetAtomic(3) {
		t.Fatal("second SetAtomic(3) returned true")
	}
}

func TestSetAtomicConcurrentExactlyOnce(t *testing.T) {
	const n = 1024
	const workers = 8
	b := NewBitset(n)
	wins := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.SetAtomic(i) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range wins {
		total += c
	}
	if total != n {
		t.Fatalf("total claims = %d, want %d (each bit claimed exactly once)", total, n)
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

func TestForEachAscending(t *testing.T) {
	b := NewBitset(300)
	want := []int{0, 2, 63, 64, 65, 128, 256, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
}

func TestAppendMembersReuse(t *testing.T) {
	b := NewBitset(64)
	b.Set(7)
	b.Set(12)
	buf := make([]int, 0, 8)
	m := b.AppendMembers(buf)
	if len(m) != 2 || m[0] != 7 || m[1] != 12 {
		t.Fatalf("AppendMembers = %v", m)
	}
}

func TestUnionIntersect(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)
	u := a.Clone()
	u.Union(b)
	if u.Count() != 3 || !u.Test(1) || !u.Test(50) || !u.Test(99) {
		t.Fatal("Union wrong")
	}
	i := a.Clone()
	i.Intersect(b)
	if i.Count() != 1 || !i.Test(50) {
		t.Fatal("Intersect wrong")
	}
}

func TestCloneEqualCopyFrom(t *testing.T) {
	a := NewBitset(77)
	a.Set(3)
	a.Set(76)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(10)
	if a.Equal(c) {
		t.Fatal("mutating clone affected equality check unexpectedly")
	}
	d := NewBitset(77)
	d.CopyFrom(a)
	if !d.Equal(a) {
		t.Fatal("CopyFrom mismatch")
	}
	if a.Equal(NewBitset(78)) {
		t.Fatal("Equal across different sizes")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	a, b := NewBitset(10), NewBitset(11)
	for name, fn := range map[string]func(){
		"CopyFrom":  func() { a.CopyFrom(b) },
		"Union":     func() { a.Union(b) },
		"Intersect": func() { a.Intersect(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with size mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitset(-1) did not panic")
		}
	}()
	NewBitset(-1)
}

func TestBitsetQuickSetTestClear(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitset(1 << 16)
		seen := map[int]bool{}
		for _, raw := range idxs {
			i := int(raw)
			b.Set(i)
			seen[i] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		for i := range seen {
			if !b.Test(i) {
				return false
			}
		}
		for i := range seen {
			b.Clear(i)
		}
		return b.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBitsetForEachSparse(b *testing.B) {
	bs := NewBitset(1 << 20)
	for i := 0; i < bs.Len(); i += 997 {
		bs.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		bs.ForEach(func(int) { count++ })
	}
}

func BenchmarkSetAtomic(b *testing.B) {
	bs := NewBitset(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.SetAtomic(i & (1<<16 - 1))
	}
}
