package fault

import (
	"strings"
	"testing"

	"ndgraph/internal/edgedata"
)

func mustInj(t *testing.T, p Plan) *Injector {
	t.Helper()
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{TornWrite: -0.1},
		{TornWrite: 1},
		{DropWrite: 1.5},
		{StaleRead: -1},
		{Delay: 1},
		{MaxFaults: -1},
		{CrashIter: -2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %+v accepted", p)
		}
		if _, err := NewInjector(p); err == nil {
			t.Errorf("NewInjector accepted %+v", p)
		}
	}
	good := Plan{Seed: 1, TornWrite: 0.5, DropWrite: 0.99, StaleRead: 0, Delay: 0.1, MaxFaults: 10, CrashIter: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestDisarmedTransparent(t *testing.T) {
	in := mustInj(t, Plan{Seed: 7, TornWrite: 0.9, DropWrite: 0.9, StaleRead: 0.9, Delay: 0.9})
	st := in.Wrap(edgedata.New(edgedata.ModeSequential, 16))
	for e := uint32(0); e < 16; e++ {
		st.StoreOn(0, e, uint64(e)*3+1)
	}
	for e := uint32(0); e < 16; e++ {
		if got := st.LoadOn(0, e); got != uint64(e)*3+1 {
			t.Fatalf("disarmed Load(%d) = %d, want %d", e, got, uint64(e)*3+1)
		}
	}
	if s := in.Stats(); s.Total() != 0 || s.Delays != 0 {
		t.Fatalf("disarmed injector committed faults: %v", s)
	}
}

// The edgedata.Store methods are the accesses of no worker: even armed at
// near-certain fault rates they inject nothing and heal nothing.
func TestWorkerlessAccessTransparent(t *testing.T) {
	in := mustInj(t, Plan{Seed: 7, TornWrite: 0.9, DropWrite: 0.9, StaleRead: 0.9, Delay: 0.9})
	st := in.Wrap(edgedata.New(edgedata.ModeSequential, 16))
	in.Arm(func(int, uint32) { t.Error("worker-less access healed") })
	defer in.Disarm()
	for e := uint32(0); e < 8; e++ {
		st.Store(e, uint64(e)+1)
	}
	st.FillRange(8, 16, 99)
	got := make([]uint64, 16)
	st.LoadRange(got, 0)
	for e := uint32(0); e < 16; e++ {
		want := uint64(99)
		if e < 8 {
			want = uint64(e) + 1
		}
		if got[e] != want || st.Load(e) != want {
			t.Fatalf("edge %d: LoadRange %d, Load %d, want %d", e, got[e], st.Load(e), want)
		}
	}
	if s := in.Stats(); s.Total() != 0 || s.Delays != 0 || s.Healed != 0 {
		t.Fatalf("worker-less accesses committed faults: %+v", s)
	}
}

func TestDropWriteKeepsOldValue(t *testing.T) {
	in := mustInj(t, Plan{Seed: 3, DropWrite: 0.7})
	st := in.Wrap(edgedata.New(edgedata.ModeSequential, 64))
	st.Fill(1)
	var healed []uint32
	in.Arm(func(w int, e uint32) {
		if w != 3 {
			t.Errorf("edge %d healed on worker %d, want the faulting worker 3", e, w)
		}
		healed = append(healed, e)
	})
	defer in.Disarm()
	for e := uint32(0); e < 64; e++ {
		st.StoreOn(3, e, 9)
	}
	s := in.Stats()
	if s.DropWrites == 0 {
		t.Fatal("no drops at probability 0.7 over 64 stores")
	}
	dropped := 0
	for e := uint32(0); e < 64; e++ {
		switch w := st.Snapshot()[e]; w {
		case 1:
			dropped++
		case 9:
		default:
			t.Fatalf("edge %d holds %d, want 1 (dropped) or 9 (committed)", e, w)
		}
	}
	if int64(dropped) != s.DropWrites {
		t.Fatalf("%d words kept old value, stats say %d drops", dropped, s.DropWrites)
	}
	if int64(len(healed)) != s.Healed || s.Healed < s.DropWrites {
		t.Fatalf("healed %d hook calls, stats %d, drops %d", len(healed), s.Healed, s.DropWrites)
	}
}

func TestTornWriteMixesHalves(t *testing.T) {
	const old, new = uint64(0x1111111122222222), uint64(0xAAAAAAAABBBBBBBB)
	mixes := map[uint64]bool{
		new: true,
		(old &^ uint64(0xFFFFFFFF)) | (new & 0xFFFFFFFF): true,
		(new &^ uint64(0xFFFFFFFF)) | (old & 0xFFFFFFFF): true,
	}
	in := mustInj(t, Plan{Seed: 11, TornWrite: 0.6})
	st := in.Wrap(edgedata.New(edgedata.ModeSequential, 64))
	st.Fill(old)
	in.Arm(func(int, uint32) {})
	defer in.Disarm()
	for e := uint32(0); e < 64; e++ {
		st.StoreOn(0, e, new)
	}
	if s := in.Stats(); s.TornWrites == 0 {
		t.Fatal("no tears at probability 0.6 over 64 stores")
	}
	for e := uint32(0); e < 64; e++ {
		if w := st.Snapshot()[e]; !mixes[w] {
			t.Fatalf("edge %d holds %#x: not the new value or an old/new half mix", e, w)
		}
	}
}

func TestStaleReadSeesPreviousValue(t *testing.T) {
	in := mustInj(t, Plan{Seed: 5, StaleRead: 0.6})
	st := in.Wrap(edgedata.New(edgedata.ModeSequential, 4))
	st.Fill(5)
	in.Arm(func(int, uint32) {})
	defer in.Disarm()
	st.StoreOn(0, 0, 7) // prev[0] = 5
	sawStale := false
	for i := 0; i < 50; i++ {
		switch got := st.LoadOn(0, 0); got {
		case 7:
		case 5:
			sawStale = true
		default:
			t.Fatalf("Load returned %d, want current 7 or previous 5", got)
		}
	}
	if !sawStale {
		t.Fatal("no stale read at probability 0.6 over 50 loads")
	}
	if s := in.Stats(); s.StaleReads == 0 {
		t.Fatalf("stats recorded no stale reads: %v", s)
	}
}

func TestFillResetsShadow(t *testing.T) {
	in := mustInj(t, Plan{Seed: 9, StaleRead: 0.999999})
	st := in.Wrap(edgedata.New(edgedata.ModeSequential, 4))
	st.Store(2, 42) // disarmed: shadow collapses onto 42
	st.Fill(3)
	in.Arm(func(int, uint32) {})
	defer in.Disarm()
	for i := 0; i < 20; i++ {
		if got := st.LoadOn(0, 2); got != 3 {
			t.Fatalf("post-Fill Load = %d, want 3 (stale shadow must reset)", got)
		}
	}
}

func TestMaxFaultsBudget(t *testing.T) {
	in := mustInj(t, Plan{Seed: 2, DropWrite: 0.9, StaleRead: 0.9, MaxFaults: 5})
	st := in.Wrap(edgedata.New(edgedata.ModeSequential, 256))
	in.Arm(func(int, uint32) {})
	defer in.Disarm()
	for e := uint32(0); e < 256; e++ {
		st.StoreOn(0, e, 1)
		st.LoadOn(0, e)
	}
	if s := in.Stats(); s.Total() > 5 {
		t.Fatalf("budget 5 exceeded: %v", s)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		in := mustInj(t, Plan{Seed: 77, TornWrite: 0.1, DropWrite: 0.1, StaleRead: 0.1, Delay: 0.1})
		st := in.Wrap(edgedata.New(edgedata.ModeSequential, 128))
		in.Arm(func(int, uint32) {})
		defer in.Disarm()
		for e := uint32(0); e < 128; e++ {
			st.StoreOn(0, e, uint64(e))
			st.LoadOn(0, e)
			st.StoreOn(0, e, uint64(e)+1)
		}
		return in.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same plan, same operations, different stats: %v vs %v", a, b)
	}
	if a.Total() == 0 {
		t.Fatal("replay test injected nothing")
	}
}

func TestCrashNowFiresOnce(t *testing.T) {
	in := mustInj(t, Plan{CrashIter: 4})
	in.Arm(func(int, uint32) {})
	defer in.Disarm()
	for iter := 0; iter < 4; iter++ {
		if in.CrashNow(iter) {
			t.Fatalf("crash fired at iteration %d, planned for 4", iter)
		}
	}
	if !in.CrashNow(4) {
		t.Fatal("crash did not fire at the planned iteration")
	}
	if in.CrashNow(4) {
		t.Fatal("crash fired twice")
	}
	if s := in.Stats(); s.Crashes != 1 {
		t.Fatalf("stats crashes = %d, want 1", s.Crashes)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{TornWrites: 1, DropWrites: 2, StaleReads: 3, Delays: 4, Crashes: 1}
	str := s.String()
	for _, want := range []string{"1 torn", "2 dropped", "3 stale", "4 delayed", "1 crashes"} {
		if !strings.Contains(str, want) {
			t.Fatalf("Stats.String() = %q, missing %q", str, want)
		}
	}
	if s.Total() != 6 {
		t.Fatalf("Total = %d, want 6 (delays and crashes excluded)", s.Total())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{TornWrite: "torn-write", DropWrite: "drop-write", StaleRead: "stale-read", Delay: "delay"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
