package edgedata

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func allModes() []Mode {
	return []Mode{ModeSequential, ModeLocked, ModeAligned, ModeAtomic}
}

func TestModeStringParse(t *testing.T) {
	for _, m := range allModes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode String empty")
	}
}

func TestConcurrentModesExcludesSequential(t *testing.T) {
	for _, m := range ConcurrentModes() {
		if m == ModeSequential {
			t.Fatal("ConcurrentModes includes ModeSequential")
		}
	}
	if len(ConcurrentModes()) != 3 {
		t.Fatalf("ConcurrentModes = %v, want the paper's three methods", ConcurrentModes())
	}
}

func TestStoreBasicAllModes(t *testing.T) {
	for _, m := range allModes() {
		s := New(m, 100)
		if s.Len() != 100 {
			t.Fatalf("%v: Len = %d", m, s.Len())
		}
		if s.Mode() != m {
			t.Fatalf("Mode() = %v, want %v", s.Mode(), m)
		}
		s.Store(7, 0xdeadbeef)
		if got := s.Load(7); got != 0xdeadbeef {
			t.Fatalf("%v: Load(7) = %#x", m, got)
		}
		if got := s.Load(8); got != 0 {
			t.Fatalf("%v: untouched slot = %#x", m, got)
		}
		s.Fill(42)
		for e := uint32(0); e < 100; e++ {
			if s.Load(e) != 42 {
				t.Fatalf("%v: Fill missed slot %d", m, e)
			}
		}
		snap := s.Snapshot()
		if len(snap) != 100 || snap[3] != 42 {
			t.Fatalf("%v: Snapshot = len %d, [3]=%d", m, len(snap), snap[3])
		}
		snap[3] = 0
		if s.Load(3) != 42 {
			t.Fatalf("%v: Snapshot aliases store", m)
		}
	}
}

func TestCompareAndSwapAllModes(t *testing.T) {
	for _, m := range allModes() {
		s := New(m, 4)
		s.Store(1, 10)
		if !s.CompareAndSwap(1, 10, 20) {
			t.Fatalf("%v: CAS with matching old failed", m)
		}
		if s.Load(1) != 20 {
			t.Fatalf("%v: CAS did not store", m)
		}
		if s.CompareAndSwap(1, 10, 30) {
			t.Fatalf("%v: CAS with stale old succeeded", m)
		}
		if s.Load(1) != 20 {
			t.Fatalf("%v: failed CAS mutated the slot", m)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative": func() { New(ModeAtomic, -1) },
		"bad mode": func() { New(Mode(77), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Under concurrent single-writer-per-slot traffic, every mode that claims
// concurrency safety must end with each slot holding the writer's final
// value (per-word atomicity: no torn or lost final writes when writers
// don't contend on the same slot).
func TestConcurrentDisjointWriters(t *testing.T) {
	const slots = 1024
	for _, m := range ConcurrentModes() {
		s := New(m, slots)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for e := uint32(w); e < slots; e += 4 {
					for round := 0; round < 50; round++ {
						s.Store(e, uint64(e)<<8|uint64(round))
					}
				}
			}(w)
		}
		wg.Wait()
		for e := uint32(0); e < slots; e++ {
			if got := s.Load(e); got != uint64(e)<<8|49 {
				t.Fatalf("%v: slot %d = %#x", m, e, got)
			}
		}
	}
}

// Lemma 1/2 analog: with two goroutines racing a write against reads of the
// same slot, every observed value must be one of the two committed values —
// never a torn mix. (ModeAligned relies on hardware word atomicity; this
// test intentionally exercises that benign race, so it must not run under
// the race detector for that mode.)
func TestNoTornReads(t *testing.T) {
	if raceEnabled {
		t.Skip("benign-race test skipped under -race (covered for atomic/locked modes elsewhere)")
	}
	const a, b = 0x1111111111111111, 0x2222222222222222
	for _, m := range ConcurrentModes() {
		s := New(m, 1)
		s.Store(0, a)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 20000; i++ {
				if i%2 == 0 {
					s.Store(0, a)
				} else {
					s.Store(0, b)
				}
			}
		}()
		bad := 0
		for i := 0; i < 20000; i++ {
			if v := s.Load(0); v != a && v != b {
				bad++
			}
		}
		<-done
		if bad > 0 {
			t.Fatalf("%v: observed %d torn values", m, bad)
		}
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return math.IsNaN(ToFloat64(FromFloat64(x)))
		}
		return ToFloat64(FromFloat64(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ToFloat64(Inf), 1) {
		t.Fatal("Inf sentinel does not decode to +Inf")
	}
}

func TestUint32RoundTrip(t *testing.T) {
	f := func(x uint32) bool { return ToUint32(FromUint32(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStoreLoad(b *testing.B) {
	for _, m := range allModes() {
		b.Run(m.String(), func(b *testing.B) {
			s := New(m, 1<<16)
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				e := uint32(i) & (1<<16 - 1)
				s.Store(e, uint64(i))
				sink += s.Load(e)
			}
			_ = sink
		})
	}
}

func TestSnapshotIntoAllModes(t *testing.T) {
	for _, m := range allModes() {
		s := New(m, 6)
		for e := 0; e < 6; e++ {
			s.Store(uint32(e), uint64(100+e))
		}

		// nil dst allocates a fresh slice equal to Snapshot().
		got := s.SnapshotInto(nil)
		want := s.Snapshot()
		if len(got) != 6 {
			t.Fatalf("%v: SnapshotInto(nil) len = %d, want 6", m, len(got))
		}
		for e := range want {
			if got[e] != want[e] {
				t.Fatalf("%v: slot %d = %d, want %d", m, e, got[e], want[e])
			}
		}

		// A dst with sufficient capacity is reused, not reallocated.
		s.Store(3, 999)
		reused := s.SnapshotInto(got)
		if &reused[0] != &got[0] {
			t.Fatalf("%v: SnapshotInto reallocated despite sufficient capacity", m)
		}
		if reused[3] != 999 {
			t.Fatalf("%v: reused snapshot slot 3 = %d, want 999", m, reused[3])
		}

		// An undersized dst grows; the result still carries every slot.
		small := make([]uint64, 0, 2)
		grown := s.SnapshotInto(small)
		if len(grown) != 6 || grown[5] != 105 {
			t.Fatalf("%v: grown snapshot = %v", m, grown)
		}

		// An oversized dst is trimmed to exactly n slots.
		big := make([]uint64, 10)
		trimmed := s.SnapshotInto(big)
		if len(trimmed) != 6 {
			t.Fatalf("%v: oversized dst trimmed to %d, want 6", m, len(trimmed))
		}
		if &trimmed[0] != &big[0] {
			t.Fatalf("%v: oversized dst was reallocated", m)
		}
	}
}

func TestSnapshotIntoSteadyStateDoesNotAllocate(t *testing.T) {
	for _, m := range allModes() {
		s := New(m, 512)
		s.Fill(7)
		buf := s.SnapshotInto(nil)
		if avg := testing.AllocsPerRun(50, func() { buf = s.SnapshotInto(buf) }); avg != 0 {
			t.Errorf("%v: SnapshotInto into warm buffer allocates %.1f, want 0", m, avg)
		}
	}
}

// The bulk operations are per-word Loads and Stores behind one call: on a
// quiescent store they must agree with the per-word operations exactly.
func TestBulkOpsMatchPerWordAllModes(t *testing.T) {
	for _, m := range allModes() {
		s := New(m, 64)
		for e := uint32(0); e < 64; e++ {
			s.Store(e, uint64(e)*3+1)
		}
		idx := []uint32{63, 0, 17, 17, 5}
		dst := make([]uint64, len(idx)+2) // longer than idx: the tail must stay untouched
		dst[len(idx)] = 0xdead
		s.Gather(dst, idx)
		for i, e := range idx {
			if dst[i] != s.Load(e) {
				t.Fatalf("%v: Gather[%d] (edge %d) = %d, Load = %d", m, i, e, dst[i], s.Load(e))
			}
		}
		if dst[len(idx)] != 0xdead {
			t.Fatalf("%v: Gather wrote past len(idx)", m)
		}
		run := make([]uint64, 9)
		s.LoadRange(run, 20)
		for i, w := range run {
			if w != s.Load(20+uint32(i)) {
				t.Fatalf("%v: LoadRange[%d] = %d, Load(%d) = %d", m, i, w, 20+i, s.Load(20+uint32(i)))
			}
		}
		s.FillRange(30, 41, 7)
		for e := uint32(0); e < 64; e++ {
			want := uint64(e)*3 + 1
			if e >= 30 && e < 41 {
				want = 7
			}
			if got := s.Load(e); got != want {
				t.Fatalf("%v: after FillRange(30, 41) slot %d = %d, want %d", m, e, got, want)
			}
		}
		// Empty ranges and index lists are no-ops, including at the end of
		// the store.
		s.Gather(nil, nil)
		s.LoadRange(nil, 64)
		s.FillRange(64, 64, 9)
	}
}

// Bulk reads racing bulk writes over the same words: every word a Gather
// or LoadRange returns must be one of the two values FillRange commits —
// per-word atomicity, and (deliberately) nothing more: one bulk read may
// mix the two values across words. Runs under -race for the locked and
// atomic stores; ModeAligned's benign races are excluded there.
func TestBulkOpsPerWordAtomicUnderContention(t *testing.T) {
	const a, b = 0x1111111111111111, 0x2222222222222222
	const slots = 48
	idx := make([]uint32, slots)
	for i := range idx {
		idx[i] = uint32(slots - 1 - i)
	}
	for _, m := range ConcurrentModes() {
		if raceEnabled && m == ModeAligned {
			continue
		}
		s := New(m, slots)
		s.Fill(a)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if i%2 == 0 {
					s.FillRange(0, slots, b)
				} else {
					s.FillRange(0, slots, a)
				}
			}
		}()
		gathered, ranged := make([]uint64, slots), make([]uint64, slots)
		for i := 0; i < 2000; i++ {
			s.Gather(gathered, idx)
			s.LoadRange(ranged, 0)
			for k := 0; k < slots; k++ {
				if w := gathered[k]; w != a && w != b {
					t.Fatalf("%v: Gather returned torn word %#x", m, w)
				}
				if w := ranged[k]; w != a && w != b {
					t.Fatalf("%v: LoadRange returned torn word %#x", m, w)
				}
			}
		}
		wg.Wait()
	}
}
