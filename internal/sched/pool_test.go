package sched

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// collect runs dispatch and records the per-worker item sequences.
func collect(p int, dispatch func(fn func(worker, item int))) map[int][]int {
	var mu sync.Mutex
	got := map[int][]int{}
	dispatch(func(w, item int) {
		mu.Lock()
		got[w] = append(got[w], item)
		mu.Unlock()
	})
	return got
}

// The pool's static dispatch must run exactly the blocks Cuts assigns —
// same worker ids, same per-worker order — and RunBlocks must keep Fig. 1's
// equal-count geometry (worker w of eff = min(P, n) runs Block(items, w,
// eff)), so deterministic schedules trace identically through either entry
// point.
func TestPoolRunBlocksMatchesCuts(t *testing.T) {
	g := hubsFirstRMAT(t, 1000, 8000, 5)
	for _, p := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			items := make([]int, n)
			for i := range items {
				items[i] = i
			}
			pool := NewPool(p)
			eff := min(p, n)
			countRef := map[int][]int{}
			for w := 0; w < eff; w++ {
				if b := Block(items, w, eff); len(b) > 0 {
					countRef[w] = b
				}
			}
			cuts := Cuts(nil, g, items, p)
			cutRef := map[int][]int{}
			for w := 0; w < p; w++ {
				if b := items[cuts[w]:cuts[w+1]]; len(b) > 0 {
					cutRef[w] = b
				}
			}
			assertAssignment(t, fmt.Sprintf("RunBlocks p=%d n=%d", p, n), countRef,
				collect(p, func(fn func(w, it int)) { pool.RunBlocks(items, fn) }))
			assertAssignment(t, fmt.Sprintf("RunCuts p=%d n=%d", p, n), cutRef,
				collect(p, func(fn func(w, it int)) { pool.RunCuts(items, cuts, fn) }))
			pool.Close()
		}
	}
}

// assertAssignment fails unless got runs exactly want's items on exactly
// want's workers, in want's per-worker order.
func assertAssignment(t *testing.T, label string, want, got map[int][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: pool used %d workers, reference %d", label, len(got), len(want))
	}
	for w, seq := range want {
		gotSeq := got[w]
		if len(gotSeq) != len(seq) {
			t.Fatalf("%s worker %d: pool ran %d items, reference %d", label, w, len(gotSeq), len(seq))
		}
		for i := range seq {
			if gotSeq[i] != seq[i] {
				t.Fatalf("%s worker %d position %d: pool %d, reference %d", label, w, i, gotSeq[i], seq[i])
			}
		}
	}
}

func TestPoolRunChunksVisitsAllOnce(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		seen := make([]int, n)
		var mu sync.Mutex
		pool.RunChunks(items, 16, func(_, item int) {
			mu.Lock()
			seen[item]++
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: item %d visited %d times", n, i, c)
			}
		}
	}
}

func TestPoolRunEachInvokesEveryWorkerOnce(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		pool := NewPool(p)
		counts := make([]int, p)
		var mu sync.Mutex
		pool.RunEach(func(w int) {
			mu.Lock()
			counts[w]++
			mu.Unlock()
		})
		pool.Close()
		for w, c := range counts {
			if c != 1 {
				t.Fatalf("p=%d: worker %d invoked %d times, want 1", p, w, c)
			}
		}
	}
}

// Repeated dispatches must reuse the same parked workers: the pool's
// goroutine count is paid once at construction, not per barrier.
func TestPoolReusesWorkersAcrossDispatches(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	items := make([]int, 256)
	for i := range items {
		items[i] = i
	}
	var sinks [4]int64
	fn := func(w, it int) { sinks[w] += int64(it) }
	pool.RunBlocks(items, fn) // workers are up after the first barrier
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		pool.RunBlocks(items, fn)
	}
	if now := runtime.NumGoroutine(); now > base+2 {
		t.Fatalf("goroutines grew across dispatches: %d -> %d", base, now)
	}
}

// A panicking task must surface at the dispatch barrier on the caller and
// leave the parked workers alive and reusable — no leak, no wedge.
func TestPoolPanicDoesNotWedgeWorkers(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	items := make([]int, 128)
	for i := range items {
		items[i] = i
	}
	var sinks [4]int64
	warm := func(w, it int) { sinks[w] += int64(it) }
	pool.RunBlocks(items, warm)
	before := runtime.NumGoroutine()

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic in pool task did not propagate to the dispatcher")
			}
			if !strings.Contains(r.(string), "boom-13") {
				t.Fatalf("propagated panic lost the task's value: %v", r)
			}
		}()
		pool.RunBlocks(items, func(_, it int) {
			if it == 13 {
				panic("boom-13")
			}
		})
	}()

	// The pool must still dispatch correctly after the panic.
	var mu sync.Mutex
	sum := 0
	pool.RunBlocks(items, func(_, it int) {
		mu.Lock()
		sum += it
		mu.Unlock()
	})
	if want := 127 * 128 / 2; sum != want {
		t.Fatalf("post-panic dispatch sum = %d, want %d", sum, want)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("panic leaked workers: %d -> %d goroutines", before, after)
	}
}

// settledGoroutines waits for the goroutine count to stop moving (workers
// from pools closed by earlier tests exit asynchronously) before reading it.
func settledGoroutines() int {
	prev := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func TestPoolCloseReleasesWorkers(t *testing.T) {
	before := settledGoroutines()
	pool := NewPool(8)
	items := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	pool.RunBlocks(items, func(_, _ int) {})
	if during := runtime.NumGoroutine(); during < before+8 {
		t.Fatalf("expected 8 parked workers, goroutines %d -> %d", before, during)
	}
	pool.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Close left workers parked: %d -> %d goroutines", before, after)
	}
}

func TestPoolSingleWorkerRunsInline(t *testing.T) {
	before := settledGoroutines()
	pool := NewPool(1)
	defer pool.Close()
	order := []int{}
	pool.RunBlocks([]int{4, 5, 6}, func(w, it int) {
		if w != 0 {
			t.Fatalf("single-worker pool used worker %d", w)
		}
		order = append(order, it)
	})
	if len(order) != 3 || order[0] != 4 || order[2] != 6 {
		t.Fatalf("inline dispatch order %v", order)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("one-worker pool spawned goroutines: %d -> %d", before, after)
	}
}

func BenchmarkPoolBlocks(b *testing.B) {
	pool := NewPool(4)
	defer pool.Close()
	items := make([]int, 4096)
	for i := range items {
		items[i] = i
	}
	var sinks [4]int64
	fn := func(w, item int) { sinks[w] += int64(item) }
	pool.RunBlocks(items, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.RunBlocks(items, fn)
	}
}

func BenchmarkPoolChunks(b *testing.B) {
	pool := NewPool(4)
	defer pool.Close()
	items := make([]int, 4096)
	for i := range items {
		items[i] = i
	}
	var sinks [4]int64
	fn := func(w, item int) { sinks[w] += int64(item) }
	pool.RunChunks(items, 64, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.RunChunks(items, 64, fn)
	}
}

// BenchmarkPoolCuts times one static dispatch of a hubs-first R-MAT's whole
// vertex set as the core engine issues it: the balanced cut, then the
// blocks.
func BenchmarkPoolCuts(b *testing.B) {
	g := hubsFirstRMAT(b, 1<<16, 1<<19, 7)
	pool := NewPool(4)
	defer pool.Close()
	items := make([]int, g.N())
	for i := range items {
		items[i] = i
	}
	var sinks [4]int64
	fn := func(w, item int) { sinks[w] += int64(item) }
	cuts := Cuts(nil, g, items, 4)
	pool.RunCuts(items, cuts, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cuts = Cuts(cuts, g, items, 4)
		pool.RunCuts(items, cuts, fn)
	}
}
