package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRecordAndEvents(t *testing.T) {
	r := NewRecorder(10)
	r.Record(0, 1, 42, 3, 0xdead)
	r.Record(0, 0, 43, 0, 7)
	r.Record(1, 1, 42, 1, 8)
	if r.Len() != 3 || r.Total() != 3 || r.Truncated() {
		t.Fatalf("Len=%d Total=%d Truncated=%v", r.Len(), r.Total(), r.Truncated())
	}
	evs := r.Events()
	if evs[0].Vertex != 42 || evs[0].Writes != 3 || evs[0].Iteration != 0 || evs[0].Worker != 1 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[0].Value != 0xdead {
		t.Fatalf("event 0 value = %#x", evs[0].Value)
	}
	if evs[2].Iteration != 1 {
		t.Fatalf("event 2 = %+v", evs[2])
	}
}

func TestBeginFinish(t *testing.T) {
	r := NewRecorder(2)
	idx := r.Begin(3, 1, 9)
	if idx != 0 {
		t.Fatalf("Begin = %d, want 0", idx)
	}
	r.Finish(idx, 4, 0xbeef)
	ev := r.Events()[0]
	if ev.Iteration != 3 || ev.Worker != 1 || ev.Vertex != 9 || ev.Writes != 4 || ev.Value != 0xbeef {
		t.Fatalf("event = %+v", ev)
	}
	// Overflow: Begin returns -1 and Finish on -1 is a no-op.
	r.Begin(0, 0, 1)
	if got := r.Begin(0, 0, 2); got != -1 {
		t.Fatalf("overflow Begin = %d, want -1", got)
	}
	r.Finish(-1, 1, 1)
	if r.Len() != 2 || r.Total() != 3 || !r.EventsTruncated() {
		t.Fatalf("Len=%d Total=%d EventsTruncated=%v", r.Len(), r.Total(), r.EventsTruncated())
	}
}

func TestCapacityTruncation(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(0, 0, uint32(i), 0, 0)
	}
	if r.Len() != 2 || r.Total() != 5 || !r.Truncated() {
		t.Fatalf("Len=%d Total=%d Truncated=%v", r.Len(), r.Total(), r.Truncated())
	}
}

func TestNegativeCapacity(t *testing.T) {
	r := NewRecorder(-1)
	r.Record(0, 0, 1, 0, 0)
	if r.Len() != 0 || !r.Truncated() {
		t.Fatal("negative capacity should retain nothing")
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder(4)
	r.EnableCommits(4, 2)
	r.Record(0, 0, 1, 0, 0)
	r.RecordCommit(0, 0, 1, 42)
	r.SetDigest(99)
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || len(r.Commits()) != 0 || r.TotalCommits() != 0 {
		t.Fatal("Reset did not clear")
	}
	if _, ok := r.Digest(); ok {
		t.Fatal("Reset did not clear digest")
	}
	// Contested tracking must restart from scratch after Reset.
	r.RecordCommit(0, 0, 1, 1)
	if _, contested := r.TakeIterCommitStats(); contested != 0 {
		t.Fatal("stale lastCommitIter after Reset")
	}
}

func TestCommitLog(t *testing.T) {
	r := NewRecorder(4)
	if r.CommitsEnabled() {
		t.Fatal("commits enabled before EnableCommits")
	}
	r.EnableCommits(3, 4)
	if !r.CommitsEnabled() {
		t.Fatal("commits not enabled")
	}
	r.RecordCommit(0, 0, 2, 10)
	r.RecordCommit(1, 0, 2, 11) // same edge, same iteration: contested
	r.RecordCommit(2, 1, 2, 12) // same edge, new iteration: not contested
	r.RecordCommit(-1, 1, 3, 13)
	cs := r.Commits()
	if len(cs) != 3 || r.TotalCommits() != 4 || !r.CommitsTruncated() {
		t.Fatalf("commits=%d total=%d truncated=%v", len(cs), r.TotalCommits(), r.CommitsTruncated())
	}
	if cs[0].Seq != 0 || cs[0].Edge != 2 || cs[0].Value != 10 || cs[0].Update != 0 {
		t.Fatalf("commit 0 = %+v", cs[0])
	}
	if cs[2].Iteration != 1 || cs[2].Value != 12 {
		t.Fatalf("commit 2 = %+v", cs[2])
	}
	commits, contested := r.TakeIterCommitStats()
	if commits != 4 || contested != 1 {
		t.Fatalf("iter stats = %d/%d, want 4/1", commits, contested)
	}
	if commits, contested = r.TakeIterCommitStats(); commits != 0 || contested != 0 {
		t.Fatalf("second take = %d/%d, want 0/0", commits, contested)
	}
}

func TestDigest(t *testing.T) {
	r := NewRecorder(1)
	if _, ok := r.Digest(); ok {
		t.Fatal("digest set before SetDigest")
	}
	r.SetDigest(0x1234)
	if d, ok := r.Digest(); !ok || d != 0x1234 {
		t.Fatalf("digest = %#x/%v", d, ok)
	}
}

func TestDigestWords(t *testing.T) {
	a := DigestWords(DigestSeed, []uint64{1, 2, 3})
	b := DigestWords(DigestSeed, []uint64{1, 2, 3})
	if a != b {
		t.Fatal("digest not deterministic")
	}
	if c := DigestWords(DigestSeed, []uint64{1, 2, 4}); c == a {
		t.Fatal("digest insensitive to word change")
	}
	if c := DigestWords(DigestSeed, []uint64{2, 1, 3}); c == a {
		t.Fatal("digest insensitive to order")
	}
	// Chaining over split slices equals one pass.
	if d := DigestWords(DigestWords(DigestSeed, []uint64{1}), []uint64{2, 3}); d != a {
		t.Fatal("chained digest differs from single pass")
	}
}

func TestPath(t *testing.T) {
	r := NewRecorder(4)
	for _, v := range []uint32{5, 3, 9} {
		r.Record(0, 0, v, 0, 0)
	}
	p := r.Path()
	if len(p) != 3 || p[0] != 5 || p[1] != 3 || p[2] != 9 {
		t.Fatalf("Path = %v", p)
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder(16)
	r.Record(0, 0, 1, 2, 0)
	r.Record(0, 1, 2, 0, 0)
	r.Record(1, 0, 1, 1, 0)
	s := r.Summarize()
	if len(s) != 2 {
		t.Fatalf("summaries = %d", len(s))
	}
	if s[0].Iteration != 0 || s[0].Updates != 2 || s[0].Writes != 2 || s[0].Workers != 2 {
		t.Fatalf("iter 0 summary = %+v", s[0])
	}
	if s[1].Updates != 1 || s[1].Workers != 1 {
		t.Fatalf("iter 1 summary = %+v", s[1])
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder(10000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(0, w, uint32(i), 0, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", r.Len())
	}
	// Every slot must be filled (no two events claimed the same slot).
	seen := map[int64]bool{}
	for _, e := range r.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestConcurrentRecordingAtCapacity drives 8 writers through a recorder
// whose capacity is far below the offered load: truncation must be
// race-clean, every retained slot must be a complete event, and the
// Total()/Len() invariants must hold exactly.
func TestConcurrentRecordingAtCapacity(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 5000
		capacity   = 1024
		totalWant  = writers * perWriter
		valueStamp = uint64(0xabcd0000)
	)
	r := NewRecorder(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(i, w, uint32(w*perWriter+i), 1, valueStamp|uint64(w))
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != capacity {
		t.Fatalf("Len = %d, want %d", r.Len(), capacity)
	}
	if r.Total() != totalWant {
		t.Fatalf("Total = %d, want %d", r.Total(), totalWant)
	}
	if !r.Truncated() || !r.EventsTruncated() {
		t.Fatal("truncation not reported")
	}
	for i, e := range r.Events() {
		if e.Seq != int64(i) {
			t.Fatalf("slot %d has seq %d", i, e.Seq)
		}
		if e.Value&^uint64(0xffff) != valueStamp || e.Writes != 1 {
			t.Fatalf("slot %d incompletely recorded: %+v", i, e)
		}
	}
	// Events() length must agree with Len() and never exceed capacity.
	if len(r.Events()) != r.Len() {
		t.Fatalf("Events()=%d Len()=%d", len(r.Events()), r.Len())
	}
}

// TestConcurrentCommitsAtCapacity exercises the commit log's truncation
// under concurrency. Per-edge ordering is the caller's job, so each worker
// owns disjoint edges here; the shared cursor and counters must stay
// race-clean.
func TestConcurrentCommitsAtCapacity(t *testing.T) {
	const (
		writers   = 8
		perWriter = 2000
		capacity  = 512
	)
	r := NewRecorder(0)
	r.EnableCommits(capacity, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.RecordCommit(int64(i), 0, uint32(w), uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Commits()); got != capacity {
		t.Fatalf("retained commits = %d, want %d", got, capacity)
	}
	if r.TotalCommits() != writers*perWriter {
		t.Fatalf("TotalCommits = %d, want %d", r.TotalCommits(), writers*perWriter)
	}
	if !r.CommitsTruncated() || !r.Truncated() {
		t.Fatal("commit truncation not reported")
	}
	commits, contested := r.TakeIterCommitStats()
	if commits != writers*perWriter {
		t.Fatalf("iter commits = %d, want %d", commits, writers*perWriter)
	}
	// Each worker re-commits its own edge in iteration 0, so all but the
	// first commit per edge are contested.
	if contested != writers*(perWriter-1) {
		t.Fatalf("contested = %d, want %d", contested, writers*(perWriter-1))
	}
}

// TestWriteCSVGolden pins the exact CSV dump, including the truncation
// footer, against a golden string.
func TestWriteCSVGolden(t *testing.T) {
	r := NewRecorder(2)
	r.Record(0, 0, 7, 2, 11)
	r.Record(1, 3, 9, 0, 12)
	r.Record(1, 0, 8, 0, 13) // dropped
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "seq,iteration,worker,vertex,writes,value\n" +
		"0,0,0,7,2,11\n" +
		"1,1,3,9,0,12\n" +
		"# truncated: 2 of 3 events retained\n"
	if sb.String() != want {
		t.Fatalf("CSV golden mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
	// Untruncated dump has no footer.
	r2 := NewRecorder(2)
	r2.Record(0, 0, 7, 2, 11)
	var sb2 strings.Builder
	if err := r2.WriteCSV(&sb2); err != nil {
		t.Fatal(err)
	}
	want2 := "seq,iteration,worker,vertex,writes,value\n0,0,0,7,2,11\n"
	if sb2.String() != want2 {
		t.Fatalf("CSV golden mismatch (untruncated):\ngot:\n%s\nwant:\n%s", sb2.String(), want2)
	}
}
