package frontier

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestFrontierInitialEmpty(t *testing.T) {
	f := NewFrontier(10)
	if f.Size() != 0 || len(f.Members()) != 0 {
		t.Fatal("new frontier not empty")
	}
	if f.Len() != 10 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestScheduleAll(t *testing.T) {
	f := NewFrontier(5)
	f.ScheduleAll()
	m := f.Members()
	if len(m) != 5 {
		t.Fatalf("Members after ScheduleAll = %v", m)
	}
	for i, v := range m {
		if v != i {
			t.Fatalf("members not in ascending label order: %v", m)
		}
	}
}

func TestScheduleNowSingleSource(t *testing.T) {
	f := NewFrontier(100)
	f.ScheduleNow(42)
	if f.Size() != 1 || f.Members()[0] != 42 {
		t.Fatalf("Members = %v, want [42]", f.Members())
	}
	if !f.Scheduled(42) || f.Scheduled(41) {
		t.Fatal("Scheduled membership wrong")
	}
}

func TestAdvanceSwapsBuffers(t *testing.T) {
	f := NewFrontier(10)
	f.ScheduleAll()
	f.Schedule(3)
	f.Schedule(7)
	if !f.next.Test(3) || f.next.Test(4) {
		t.Fatal("next set wrong before advance")
	}
	n := f.Advance()
	if n != 2 {
		t.Fatalf("Advance returned %d, want 2", n)
	}
	m := f.Members()
	if len(m) != 2 || m[0] != 3 || m[1] != 7 {
		t.Fatalf("Members after advance = %v", m)
	}
	if f.next.Count() != 0 {
		t.Fatal("next buffer not cleared after advance")
	}
	// Converged: nothing scheduled.
	if f.Advance() != 0 {
		t.Fatal("second Advance should report empty set")
	}
}

func TestScheduleIdempotent(t *testing.T) {
	f := NewFrontier(10)
	if !f.Schedule(5) {
		t.Fatal("first Schedule(5) returned false")
	}
	if f.Schedule(5) {
		t.Fatal("duplicate Schedule(5) returned true")
	}
	if f.next.Count() != 1 {
		t.Fatalf("next size = %d, want 1", f.next.Count())
	}
}

func TestScheduleConcurrent(t *testing.T) {
	const n = 2000
	f := NewFrontier(n)
	var wg sync.WaitGroup
	newly := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if f.Schedule(i) {
					newly[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range newly {
		total += c
	}
	if total != n {
		t.Fatalf("concurrent Schedule claimed %d, want %d", total, n)
	}
	if got := f.Advance(); got != n {
		t.Fatalf("Advance = %d, want %d", got, n)
	}
}

func TestMembersAscendingAfterConcurrentSchedule(t *testing.T) {
	f := NewFrontier(512)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 512; i += 4 {
				f.Schedule(i)
			}
		}(w)
	}
	wg.Wait()
	f.Advance()
	m := f.Members()
	for i := 1; i < len(m); i++ {
		if m[i-1] >= m[i] {
			t.Fatalf("members not strictly ascending at %d: %v...", i, m[i-1:i+1])
		}
	}
}

func TestScheduleNowAllMatchesIndividualSeeding(t *testing.T) {
	seeds := []int{0, 7, 7, 3, 63, 64, 99}
	a := NewFrontier(100)
	a.ScheduleNowAll(seeds)
	b := NewFrontier(100)
	for _, v := range seeds {
		b.ScheduleNow(v)
	}
	am, bm := a.Members(), b.Members()
	if len(am) != len(bm) {
		t.Fatalf("batched seeding yields %v, individual %v", am, bm)
	}
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("batched seeding yields %v, individual %v", am, bm)
		}
	}
	if a.Size() != 6 { // 7 appears twice
		t.Fatalf("Size = %d, want 6", a.Size())
	}
}

func TestSeedingDefersRebuildUntilFirstRead(t *testing.T) {
	f := NewFrontier(64)
	f.ScheduleNow(3)
	if got := f.Members(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Members after ScheduleNow = %v", got)
	}
	// A mutation after a read must invalidate the cached members again.
	f.ScheduleNow(10)
	if got := f.Members(); len(got) != 2 || got[1] != 10 {
		t.Fatalf("Members after second ScheduleNow = %v", got)
	}
	f.LoadCurrent([]int{5})
	if got := f.Members(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Members after LoadCurrent = %v", got)
	}
	f.ScheduleAll()
	if f.Size() != 64 {
		t.Fatalf("Size after ScheduleAll = %d, want 64", f.Size())
	}
}

// Seeding k sources must cost O(k) plus one deferred rebuild, not k O(n)
// rebuilds. With n = 1<<18 and k = 1<<17 the old eager behavior performed
// ~2^35 word scans — tens of seconds — so a generous wall-clock bound cleanly
// separates the regression without flaking on slow machines.
func TestSeedingManySourcesIsFast(t *testing.T) {
	const n, k = 1 << 18, 1 << 17
	f := NewFrontier(n)
	start := time.Now()
	for v := 0; v < k; v++ {
		f.ScheduleNow(v * 2)
	}
	if f.Size() != k {
		t.Fatalf("Size = %d, want %d", f.Size(), k)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("seeding %d sources took %v — per-call rebuild regression", k, elapsed)
	}
}

// Schedule keeps no count of its own, so the sizes and degree sums read at
// the barrier must equal the bitset's popcount and degree sum exactly after
// arbitrary concurrent Schedule storms — including heavy duplicate posting,
// which must not double-count.
func TestNextSizeCounterMatchesPopcountUnderStorm(t *testing.T) {
	const n = 4096
	f := NewFrontier(n)
	deg := make([]uint32, n)
	for v := range deg {
		deg[v] = uint32(v % 7)
	}
	f.AttachOutDegrees(deg)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Overlapping strided ranges: every vertex is posted by
				// several workers, most posts are duplicates.
				for i := w % 3; i < n; i += 1 + w%3 {
					f.Schedule(i)
				}
			}(w)
		}
		wg.Wait()
		var wantDeg int64
		popcount := 0
		for v := 0; v < n; v++ {
			if f.next.Test(v) {
				popcount++
				wantDeg += int64(deg[v])
			}
		}
		if got := f.next.Count(); got != popcount {
			t.Fatalf("round %d: next size = %d, popcount = %d", round, got, popcount)
		}
		if got := f.sumDeg(f.next); got != wantDeg {
			t.Fatalf("round %d: next out-degree = %d, want %d", round, got, wantDeg)
		}
		if got := f.Advance(); got != popcount {
			t.Fatalf("round %d: Advance = %d, popcount = %d", round, got, popcount)
		}
		if f.Size() != popcount || f.CurrentOutDegree() != wantDeg {
			t.Fatalf("round %d: current accounting (%d, %d) != (%d, %d)",
				round, f.Size(), f.CurrentOutDegree(), popcount, wantDeg)
		}
		if f.next.Count() != 0 || f.sumDeg(f.next) != 0 {
			t.Fatal("next accounting not reset by Advance")
		}
	}
}

// Seeding mutators maintain the O(1) accounting too, with duplicates
// Test-guarded so they never double-count.
func TestSeedingMaintainsDegreeAccounting(t *testing.T) {
	f := NewFrontier(64)
	deg := make([]uint32, 64)
	for v := range deg {
		deg[v] = uint32(v)
	}
	f.AttachOutDegrees(deg)
	f.ScheduleNowAll([]int{3, 5, 3, 5}) // duplicates
	if f.Size() != 2 || f.CurrentOutDegree() != 8 {
		t.Fatalf("after seeding: size %d deg %d, want 2, 8", f.Size(), f.CurrentOutDegree())
	}
	f.LoadCurrent([]int{10, 20})
	if f.Size() != 2 || f.CurrentOutDegree() != 30 {
		t.Fatalf("after LoadCurrent: size %d deg %d, want 2, 30", f.Size(), f.CurrentOutDegree())
	}
	f.ScheduleAll()
	var all int64
	for _, d := range deg {
		all += int64(d)
	}
	if f.Size() != 64 || f.CurrentOutDegree() != all {
		t.Fatalf("after ScheduleAll: size %d deg %d, want 64, %d", f.Size(), f.CurrentOutDegree(), all)
	}
	// Attaching late reconciles accumulators from the bitsets.
	g := NewFrontier(64)
	g.ScheduleNowAll([]int{1, 2})
	g.Schedule(4)
	g.AttachOutDegrees(deg)
	if g.CurrentOutDegree() != 3 || g.sumDeg(g.next) != 4 {
		t.Fatalf("attach reconciliation: cur %d next %d, want 3, 4", g.CurrentOutDegree(), g.sumDeg(g.next))
	}
}

func TestSeedingDoesNotAllocatePerCall(t *testing.T) {
	f := NewFrontier(1 << 12)
	f.ScheduleAll()
	_ = f.Members() // warm the member cache to full capacity
	f.LoadCurrent(nil)
	batch := []int{1, 2, 3}
	if avg := testing.AllocsPerRun(100, func() {
		f.ScheduleNow(9)
		f.ScheduleNowAll(batch)
		_ = f.Members()
	}); avg != 0 {
		t.Errorf("seed+read cycle allocates %.1f per run, want 0", avg)
	}
}

// Advance folds the worker sets, recounts the new current set and, with
// degrees attached, sums its out-degrees at every barrier; neither that nor
// a post on either path may allocate, under the race detector as well.
func TestAdvanceWithDegreesDoesNotAllocate(t *testing.T) {
	const n = 1 << 12
	f := NewFrontierWorkers(n, 2)
	deg := make([]uint32, n)
	for v := range deg {
		deg[v] = uint32(v % 5)
	}
	f.AttachOutDegrees(deg)
	batch := []uint32{1, 64, 4000}
	if avg := testing.AllocsPerRun(100, func() {
		for v := 0; v < n; v += 3 {
			if v%2 == 0 {
				f.ScheduleOn(v%4/2, v)
			} else {
				f.Schedule(v)
			}
		}
		f.ScheduleEachOn(1, batch)
		f.Advance()
	}); avg != 0 {
		t.Errorf("Schedule/ScheduleOn+Advance allocates %.1f per run, want 0", avg)
	}
	if want := (n+2)/3 + len(batch); f.Size() != want { // the batch is off the stride
		t.Fatalf("Size = %d, want %d", f.Size(), want)
	}
}

// Worker sets are private until the barrier: P goroutines post through
// ScheduleOn and ScheduleEachOn (overlapping, with duplicates) beside a
// shared Schedule poster, and after Advance the current set is exactly the
// union of every post, with Size and CurrentOutDegree counting it. Each
// round posts a different set, so a worker set Advance failed to clear
// shows up in the next round.
func TestWorkerSetsFoldAtAdvance(t *testing.T) {
	const n, p = 3000, 4
	f := NewFrontierWorkers(n, p)
	deg := make([]uint32, n)
	for v := range deg {
		deg[v] = uint32(v%11 + 1)
	}
	f.AttachOutDegrees(deg)
	for round := 0; round < 4; round++ {
		posted := func(w, v int) bool { return (v*(w+3)+round*7)%(5+round) == 0 }
		var wg sync.WaitGroup
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var batch []uint32
				for v := 0; v < n; v++ {
					if !posted(w, v) {
						continue
					}
					if v%2 == 0 {
						f.ScheduleOn(w, v)
						f.ScheduleOn(w, v) // a duplicate post
					} else {
						batch = append(batch, uint32(v))
					}
				}
				f.ScheduleEachOn(w, batch)
			}(w)
		}
		wg.Add(1)
		go func() { // the shared path, as a fault heal hook uses it
			defer wg.Done()
			for v := round; v < n; v += 97 {
				f.Schedule(v)
			}
		}()
		wg.Wait()
		var want []int
		var wantDeg int64
		for v := 0; v < n; v++ {
			in := (v-round)%97 == 0 && v >= round
			for w := 0; w < p && !in; w++ {
				in = posted(w, v)
			}
			if in {
				want = append(want, v)
				wantDeg += int64(deg[v])
			}
		}
		if got := f.Advance(); got != len(want) {
			t.Fatalf("round %d: Advance = %d, want %d", round, got, len(want))
		}
		if got := f.Members(); !slices.Equal(got, want) {
			t.Fatalf("round %d: current set has %d members, want the %d posted", round, len(got), len(want))
		}
		if f.Size() != len(want) || f.CurrentOutDegree() != wantDeg {
			t.Fatalf("round %d: accounting (%d, %d), want (%d, %d)",
				round, f.Size(), f.CurrentOutDegree(), len(want), wantDeg)
		}
		for w, b := range f.local {
			if b.Count() != 0 {
				t.Fatalf("round %d: worker set %d not cleared by Advance", round, w)
			}
		}
	}
}

// LoadCurrent drops pending worker posts along with the shared next set:
// after it, Advance yields only what was posted since.
func TestLoadCurrentDropsWorkerPosts(t *testing.T) {
	f := NewFrontierWorkers(200, 2)
	f.ScheduleOn(0, 5)
	f.ScheduleEachOn(1, []uint32{6, 150})
	f.Schedule(7)
	f.LoadCurrent([]int{1})
	if got := f.Members(); !slices.Equal(got, []int{1}) {
		t.Fatalf("current set after LoadCurrent = %v, want [1]", got)
	}
	f.ScheduleOn(1, 9)
	f.Advance()
	if got := f.Members(); !slices.Equal(got, []int{9}) {
		t.Fatalf("current set after Advance = %v, want [9]: LoadCurrent kept pending posts", got)
	}
}
