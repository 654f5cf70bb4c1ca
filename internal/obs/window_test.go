package obs

import (
	"testing"
	"time"
)

// Events within one WindowEvery span fold into a single pending window;
// crossing the span rolls it into the closed ring.
func TestWindowFoldAndRoll(t *testing.T) {
	o := New(Options{WindowEvery: time.Millisecond})
	base := time.Now().UnixNano()
	o.Emit(Event{Engine: EngineNoSync, TimeUnixNano: base, Updates: 10, Steals: 1, Residual: 0.5})
	o.Emit(Event{Engine: EngineNoSync, TimeUnixNano: base + 100, Updates: 20, Steals: 2, Residual: 0.4})
	if got := o.Windows(); len(got) != 0 {
		t.Fatalf("window closed early: %+v", got)
	}
	// This event spans the window width: the fold rolls the window closed.
	o.Emit(Event{Engine: EngineNoSync, TimeUnixNano: base + int64(time.Millisecond), Updates: 5, Residual: 0.3})
	wins := o.Windows()
	if len(wins) != 1 {
		t.Fatalf("closed windows = %d, want 1", len(wins))
	}
	w := wins[0]
	if w.Engine != "nosync" || w.Samples != 3 || w.Updates != 35 || w.Steals != 3 {
		t.Errorf("window = %+v, want nosync/3 samples/35 updates/3 steals", w)
	}
	if w.Residual != 0.3 {
		t.Errorf("window Residual = %g, want the last sample's 0.3", w.Residual)
	}
	if w.StartUnixNano != base || w.EndUnixNano != base+int64(time.Millisecond) {
		t.Errorf("window span = [%d, %d], want [%d, %d]", w.StartUnixNano, w.EndUnixNano, base, base+int64(time.Millisecond))
	}
}

// Regression (PR 9 satellite): a run shorter than WindowEvery used to vanish
// from the aggregation entirely — the pending partial window was dropped at
// shutdown. Close must flush it.
func TestCloseFlushesPartialWindow(t *testing.T) {
	o := New(Options{}) // default 1s window, far longer than this test
	o.Emit(Event{Engine: EngineCore, TimeUnixNano: 1, Updates: 7, Residual: 0.9})
	o.Emit(Event{Engine: EngineNoSync, TimeUnixNano: 2, Updates: 3, Residual: 0.1})
	if got := o.Windows(); len(got) != 0 {
		t.Fatalf("windows closed before Close: %+v", got)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wins := o.Windows()
	if len(wins) != 2 {
		t.Fatalf("closed windows after Close = %d, want 2 (one per engine)", len(wins))
	}
	byEngine := map[string]WindowStat{}
	for _, w := range wins {
		byEngine[w.Engine] = w
	}
	if w := byEngine["core"]; w.Updates != 7 || w.Samples != 1 {
		t.Errorf("core partial window = %+v", w)
	}
	if w := byEngine["nosync"]; w.Updates != 3 || w.Residual != 0.1 {
		t.Errorf("nosync partial window = %+v", w)
	}
	// A second Close finds nothing pending and flushes nothing twice.
	_ = o.Close()
	if got := len(o.Windows()); got != 2 {
		t.Errorf("windows after double Close = %d, want 2", got)
	}
}

// The closed-window ring keeps the most recent windowKeep windows,
// oldest-first, once it wraps.
func TestWindowRingWraparoundKeepsOrder(t *testing.T) {
	// With a 1ns width, every second event crosses the span and rolls the
	// window, so window j holds samples 2j and 2j+1 (Updates = 4j+1).
	o := New(Options{WindowEvery: time.Nanosecond})
	const closed = windowKeep + 10
	for i := 0; i < 2*closed; i++ {
		o.Emit(Event{Engine: EngineNoSync, TimeUnixNano: int64(i + 1), Iter: int64(i), Updates: int64(i)})
	}
	wins := o.Windows()
	if len(wins) != windowKeep {
		t.Fatalf("ring holds %d windows, want %d", len(wins), windowKeep)
	}
	for i, w := range wins {
		j := int64(closed - windowKeep + i)
		if want := 4*j + 1; w.Updates != want {
			t.Fatalf("window[%d].Updates = %d, want %d (oldest-first order broken)", i, w.Updates, want)
		}
	}
}

func TestWindowsNilSafe(t *testing.T) {
	var o *Observer
	if got := o.Windows(); got != nil {
		t.Errorf("nil Windows = %v", got)
	}
	o.SetPhase("x")
	if o.Phase() != "" {
		t.Error("nil Phase != empty")
	}
	o.SetDelaySource(EngineCore, func() DelayHist { return DelayHist{} })
	if got := o.DelaySnapshots(); got != nil {
		t.Errorf("nil DelaySnapshots = %v", got)
	}
}
