package core

import (
	"errors"
	"testing"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/sched"
	"ndgraph/internal/trace"
)

// recordRun executes minLabelUpdate on g with commit logging enabled and
// returns the snapshot trace plus the recorded run's final state.
func recordRun(t *testing.T, g *graph.Graph, opts Options) (*trace.Trace, []uint64, []uint64) {
	t.Helper()
	rec := trace.NewRecorder(1 << 18)
	rec.EnableCommits(1<<20, g.M())
	opts.Trace = rec
	e := newEngine(t, g, opts)
	initMinLabel(e)
	res, err := e.Run(minLabelUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("recorded run did not converge")
	}
	tr := rec.Snapshot(trace.Meta{Vertices: g.N(), Edges: g.M()})
	if tr.Truncated() {
		t.Fatalf("trace truncated: %d/%d events, %d/%d commits",
			len(tr.Events), tr.TotalEvents, len(tr.Commits), tr.TotalCommits)
	}
	if !tr.HasDigest {
		t.Fatal("recorded trace has no digest")
	}
	verts := append([]uint64(nil), e.Vertices...)
	return tr, verts, e.Edges.Snapshot()
}

// replayOnto re-executes tr on a fresh engine with the same initial state
// and returns the report plus the replayed final state.
func replayOnto(t *testing.T, g *graph.Graph, tr *trace.Trace) (ReplayReport, []uint64, []uint64) {
	t.Helper()
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initMinLabel(e)
	rep, err := e.ReplayTrace(tr, minLabelUpdate)
	if err != nil {
		t.Fatalf("replay failed: %v\nreport: %+v", err, rep)
	}
	if !rep.DigestOK {
		t.Fatalf("replay digest mismatch without error: %+v", rep)
	}
	return rep, e.Vertices, e.Edges.Snapshot()
}

func assertStateIdentical(t *testing.T, wantV, gotV, wantE, gotE []uint64) {
	t.Helper()
	for i := range wantV {
		if gotV[i] != wantV[i] {
			t.Fatalf("vertex %d: replayed %#x, recorded %#x", i, gotV[i], wantV[i])
		}
	}
	for i := range wantE {
		if gotE[i] != wantE[i] {
			t.Fatalf("edge %d: replayed %#x, recorded %#x", i, gotE[i], wantE[i])
		}
	}
}

// A recorded nondeterministic run replays to a byte-identical fixed point —
// Lemmas 1–2 as an executable assertion, for both per-operation atomicity
// disciplines the paper studies (locks and atomic primitives).
func TestReplayNondeterministicByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode edgedata.Mode
	}{
		{"locked", edgedata.ModeLocked},
		{"atomic", edgedata.ModeAtomic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := gen.RMAT(400, 3200, gen.DefaultRMAT, 173)
			if err != nil {
				t.Fatal(err)
			}
			tr, wantV, wantE := recordRun(t, g, Options{
				Scheduler: sched.Nondeterministic, Threads: 4,
				Mode: tc.mode, Amplify: true,
			})
			rep, gotV, gotE := replayOnto(t, g, tr)
			assertStateIdentical(t, wantV, gotV, wantE, gotE)
			if rep.Updates != tr.TotalEvents {
				t.Fatalf("replayed %d updates, trace holds %d", rep.Updates, tr.TotalEvents)
			}
			if rep.Commits == 0 {
				t.Fatal("nondeterministic run recorded no commits")
			}
		})
	}
}

// A deterministic single-threaded run replays with every recomputation
// matching its recorded outcome: the trace forcing machinery is a no-op
// when there was no race to force.
func TestReplayDeterministicExact(t *testing.T) {
	g, err := gen.RMAT(200, 1400, gen.DefaultRMAT, 174)
	if err != nil {
		t.Fatal(err)
	}
	tr, wantV, wantE := recordRun(t, g, Options{Scheduler: sched.Deterministic})
	rep, gotV, gotE := replayOnto(t, g, tr)
	assertStateIdentical(t, wantV, gotV, wantE, gotE)
	if rep.WriteMismatches != 0 || rep.MissingWrites != 0 || rep.ExtraWrites != 0 {
		t.Fatalf("deterministic replay disagreed with its recording: %+v", rep)
	}
	if rep.ValueMismatches != 0 {
		t.Fatalf("deterministic replay recomputed %d divergent vertex values", rep.ValueMismatches)
	}
}

// Replay refuses traces it cannot faithfully reproduce: wrong graph,
// truncated recordings, recordings without a digest.
func TestReplayValidation(t *testing.T) {
	g, err := gen.RMAT(100, 600, gen.DefaultRMAT, 175)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _ := recordRun(t, g, Options{Scheduler: sched.Deterministic})

	other, err := gen.Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, other, Options{Scheduler: sched.Deterministic})
	initMinLabel(e)
	if _, err := e.ReplayTrace(tr, minLabelUpdate); err == nil {
		t.Error("replay accepted a trace for a different graph")
	}

	e2 := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initMinLabel(e2)
	trunc := *tr
	trunc.TotalEvents = int64(len(tr.Events)) + 5
	if _, err := e2.ReplayTrace(&trunc, minLabelUpdate); err == nil {
		t.Error("replay accepted a truncated trace")
	}
	noDigest := *tr
	noDigest.HasDigest = false
	if _, err := e2.ReplayTrace(&noDigest, minLabelUpdate); err == nil {
		t.Error("replay accepted a digest-less trace")
	}
	if _, err := e2.ReplayTrace(nil, minLabelUpdate); err == nil {
		t.Error("replay accepted a nil trace")
	}
}

// Tampering with a recorded commit value breaks the digest assertion.
func TestReplayDetectsTamperedTrace(t *testing.T) {
	g, err := gen.RMAT(150, 1000, gen.DefaultRMAT, 176)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _ := recordRun(t, g, Options{
		Scheduler: sched.Nondeterministic, Threads: 4, Mode: edgedata.ModeAtomic,
	})
	if len(tr.Commits) == 0 {
		t.Fatal("no commits to tamper with")
	}
	// Flip the last commit's value: it wins its edge's lastSeq race, so the
	// corruption must survive into the final state and trip the digest.
	tr.Commits[len(tr.Commits)-1].Value ^= 0xdeadbeef
	e := newEngine(t, g, Options{Scheduler: sched.Deterministic})
	initMinLabel(e)
	_, err = e.ReplayTrace(tr, minLabelUpdate)
	if !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("tampered trace replayed with err = %v, want ErrReplayDiverged", err)
	}
}

// Replay runs on a dry context that reads the live store, whatever the
// replaying engine's scheduler or history: a commit-logged Synchronous
// trace replays to the same report and the same bytes on a fresh
// deterministic engine, on a Synchronous engine whose edge snapshot is left
// over from an earlier run, and on a PotentialCensus engine, whose census
// the replay must not feed.
func TestReplayIndependentOfReplayingEngine(t *testing.T) {
	g, err := gen.RMAT(300, 2400, gen.DefaultRMAT, 177)
	if err != nil {
		t.Fatal(err)
	}
	tr, wantV, wantE := recordRun(t, g, Options{
		Scheduler: sched.Synchronous, Threads: 4, Mode: edgedata.ModeAtomic,
	})
	want, _, _ := replayOnto(t, g, tr)
	for _, opts := range []Options{
		{Scheduler: sched.Synchronous, Threads: 4, Mode: edgedata.ModeAtomic},
		{Scheduler: sched.Deterministic, PotentialCensus: true},
	} {
		e := newEngine(t, g, opts)
		initMinLabel(e)
		if _, err := e.Run(minLabelUpdate); err != nil {
			t.Fatal(err)
		}
		initMinLabel(e)
		rep, err := e.ReplayTrace(tr, minLabelUpdate)
		if err != nil {
			t.Fatalf("%v: replay failed: %v", opts.Scheduler, err)
		}
		if rep != want {
			t.Fatalf("%v engine replayed %+v, a fresh deterministic engine %+v", opts.Scheduler, rep, want)
		}
		assertStateIdentical(t, wantV, e.Vertices, wantE, e.Edges.Snapshot())
		if e.census != nil {
			if rw, ww := e.census.Tally(); rw != 0 || ww != 0 {
				t.Fatalf("replay fed the census: %d RW / %d WW conflict edges", rw, ww)
			}
		}
		e.Close()
	}
}
