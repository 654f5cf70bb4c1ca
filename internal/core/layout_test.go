package core

import (
	"testing"
	"unsafe"

	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/sched"
)

// Every per-worker record written on the update path has cache lines of its
// own, so one worker's writes never invalidate a line another worker is
// using: the barrier engine's contexts by size and alignment, the NoSync
// views by their leading pad, and NoSync's shared update counter by pads on
// both sides. Hybrid's per-worker counters are pinned in their package.
func TestPerWorkerLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Ctx{}); sz%cacheLine != 0 {
		t.Errorf("Ctx is %d B, not a multiple of the %d B cache line", sz, cacheLine)
	}
	g, err := gen.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 8; p++ {
		e, err := NewEngine(g, Options{
			Scheduler: sched.Nondeterministic, Threads: p,
			Mode: edgedata.ModeAtomic, PotentialCensus: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.ensureWorkers()
		for _, a := range []struct {
			name string
			cs   []Ctx
		}{{"workers", e.workers}, {"shadowWorkers", e.shadowWorkers}} {
			if len(a.cs) != p {
				t.Fatalf("P=%d: %d %s, want %d", p, len(a.cs), a.name, p)
			}
			if addr := uintptr(unsafe.Pointer(&a.cs[0])); addr%cacheLine != 0 {
				t.Errorf("P=%d: &%s[0] is %d B past a cache line", p, a.name, addr%cacheLine)
			}
		}
		e.Close()
	}

	var v nsView
	if off := unsafe.Offsetof(v.Scope); off != cacheLine {
		t.Errorf("nsView's Scope starts at %d B, want after the %d B leading pad", off, cacheLine)
	}

	// updates is alone on its line whatever noSync's alignment iff at least
	// a line minus the counter separates it from its neighbours.
	var x noSync
	free := uintptr(cacheLine) - unsafe.Sizeof(x.updates)
	before := unsafe.Offsetof(x.updates) - (unsafe.Offsetof(x.stealSeed) + unsafe.Sizeof(x.stealSeed))
	after := unsafe.Offsetof(x.state) - (unsafe.Offsetof(x.updates) + unsafe.Sizeof(x.updates))
	if before < free || after < free {
		t.Errorf("noSync.updates has %d B before and %d B after it, want at least %d on each side", before, after, free)
	}
}
