package main

import (
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the layer's public functions. Spans of one run share the workload id.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // -1 for a top-level span
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	SelfNs   int64              `json:"self_ns"` // duration minus the part child spans cover
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. The harness is
// single-threaded, so the parent of a new span is the innermost open one.
// Only the traced pass has one; on a nil tracer begin, end and count do
// nothing, so both passes share solveOnce.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// spanRef is an open span; end closes it.
type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) begin(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return spanRef{t, id}
}

// end closes the span and returns its duration in seconds (0 when untraced).
func (r spanRef) end() float64 {
	if r.t == nil {
		return 0
	}
	s := &r.t.spans[r.id]
	s.EndNs = time.Since(r.t.t0).Nanoseconds()
	r.t.open = r.t.open[:len(r.t.open)-1]
	return float64(s.EndNs-s.StartNs) / 1e9
}

// count snapshots a counter at the span's boundary.
func (r spanRef) count(name string, v float64) {
	if r.t == nil {
		return
	}
	s := &r.t.spans[r.id]
	if s.Counters == nil {
		s.Counters = map[string]float64{}
	}
	s.Counters[name] = v
}

// in records fn as one span.
func (t *tracer) in(name string, fn func()) {
	sp := t.begin(name)
	fn()
	sp.end()
}

// countLast adds counters to the most recent span called name.
func (t *tracer) countLast(name string, counters map[string]float64) {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			for k, v := range counters {
				spanRef{t, i}.count(k, v)
			}
			return
		}
	}
}

// finish computes self times and returns the share of wall time top-level
// spans cover plus the self time per span name.
func (t *tracer) finish() (coverage float64, selfS map[string]float64) {
	wall := time.Since(t.t0).Nanoseconds()
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	var covered int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			covered += s.EndNs - s.StartNs
		} else {
			t.spans[s.Parent].SelfNs -= s.EndNs - s.StartNs
		}
	}
	selfS = map[string]float64{}
	for _, s := range t.spans {
		selfS[s.Name] += float64(s.SelfNs) / 1e9
	}
	return float64(covered) / float64(wall), selfS
}
