package obs

import (
	"bufio"
	"expvar"
	"io"
	"math"
	"strconv"
	"sync"
)

// Sink consumes emitted events. Sinks are called synchronously under the
// observer's lock, in emit order; a slow sink therefore backpressures
// emitters, which is the honest tradeoff for losing no events (the ring
// buffer absorbs nothing a sink hasn't seen). Consume must not call back
// into the Observer.
type Sink interface {
	// Consume receives one event. The pointed-to Event is only valid for
	// the duration of the call; implementations must copy what they keep.
	Consume(ev *Event)
	// Close flushes and releases the sink.
	Close() error
}

// JSONLSink renders each event as one JSON object per line. The encoder is
// hand-rolled over a reusable buffer so a steady-state Consume performs no
// heap allocation — with the JSONL sink attached, the core engine's hot
// path stays within the <5% updates/s budget asserted by the benchmarks.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // closed by Close when the target is a file
	buf []byte
	err error
}

// NewJSONLSink wraps w. If w is also an io.Closer (a file), Close closes
// it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 512)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Consume implements Sink.
func (s *JSONLSink) Consume(ev *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, ev.TimeUnixNano, 10)
	b = append(b, `,"engine":"`...)
	b = append(b, ev.Engine.String()...)
	b = append(b, `","iter":`...)
	b = strconv.AppendInt(b, ev.Iter, 10)
	b = append(b, `,"scheduled":`...)
	b = strconv.AppendInt(b, ev.Scheduled, 10)
	b = append(b, `,"updates":`...)
	b = strconv.AppendInt(b, ev.Updates, 10)
	b = append(b, `,"edge_reads":`...)
	b = strconv.AppendInt(b, ev.EdgeReads, 10)
	b = append(b, `,"edge_writes":`...)
	b = strconv.AppendInt(b, ev.EdgeWrites, 10)
	b = append(b, `,"rw":`...)
	b = strconv.AppendInt(b, ev.RWConflicts, 10)
	b = append(b, `,"ww":`...)
	b = strconv.AppendInt(b, ev.WWConflicts, 10)
	b = append(b, `,"residual":`...)
	b = appendFloat(b, ev.Residual)
	b = append(b, `,"barrier_wait_ns":`...)
	b = strconv.AppendInt(b, ev.BarrierWaitNanos, 10)
	b = append(b, `,"duration_ns":`...)
	b = strconv.AppendInt(b, ev.DurationNanos, 10)
	if ev.Direction != "" {
		b = append(b, `,"direction":"`...)
		b = append(b, ev.Direction...)
		b = append(b, '"')
	}
	if ev.Messages != 0 {
		b = append(b, `,"messages":`...)
		b = strconv.AppendInt(b, ev.Messages, 10)
	}
	if ev.Engine == EngineNoSync {
		b = append(b, `,"steals":`...)
		b = strconv.AppendInt(b, ev.Steals, 10)
		b = append(b, `,"idle_transitions":`...)
		b = strconv.AppendInt(b, ev.IdleTransitions, 10)
	}
	if ev.DelayP50 != 0 || ev.DelayP99 != 0 || ev.DelayMax != 0 {
		b = append(b, `,"delay_p50":`...)
		b = strconv.AppendInt(b, ev.DelayP50, 10)
		b = append(b, `,"delay_p99":`...)
		b = strconv.AppendInt(b, ev.DelayP99, 10)
		b = append(b, `,"delay_max":`...)
		b = strconv.AppendInt(b, ev.DelayMax, 10)
	}
	b = append(b, "}\n"...)
	s.buf = b
	_, s.err = s.w.Write(b)
}

// Flush forces buffered lines out to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Close implements Sink: flush, then close the underlying file if any.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ferr := s.w.Flush()
	if s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		cerr := s.c.Close()
		s.c = nil
		if s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar exports the observer's per-engine stats as an expvar
// variable under the given name ("ndgraph" if empty), visible on
// /debug/vars of any process that serves expvar. Publishing the same name
// twice (e.g. two observers in one test binary) rebinds it to this
// observer instead of panicking the way expvar.Publish would. Safe on nil
// (no-op).
func (o *Observer) PublishExpvar(name string) {
	if o == nil {
		return
	}
	if name == "" {
		name = "ndgraph"
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	// expvar.Publish panics on duplicate names and has no Unpublish, so
	// each name is published once per process with a forwarder that reads
	// the currently bound observer from expvarTargets.
	expvarTargets.Lock()
	expvarTargets.m[name] = o
	expvarTargets.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any {
		expvarTargets.Lock()
		target := expvarTargets.m[name]
		expvarTargets.Unlock()
		return target.Stats()
	}))
}

// expvarTargets maps published expvar names to their current observer, so
// re-publishing a name (new observer, same process) just swaps the target.
var expvarTargets = struct {
	sync.Mutex
	m map[string]*Observer
}{m: map[string]*Observer{}}

// appendFloat renders f compactly without allocating.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, f, 'g', 6, 64)
}
