package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestNilObserverIsSafeEverywhere(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Error("nil observer reports Enabled")
	}
	if o.SampleConflicts() {
		t.Error("nil observer reports SampleConflicts")
	}
	o.Emit(Event{Engine: EngineCore, Updates: 5})
	o.AttachSink(NewJSONLSink(io.Discard))
	o.PublishExpvar("nil-test")
	if evs := o.Events(); evs != nil {
		t.Errorf("nil observer Events = %v, want nil", evs)
	}
	if st := o.Stats(); st != nil {
		t.Errorf("nil observer Stats = %v, want nil", st)
	}
	if err := o.Close(); err != nil {
		t.Errorf("nil observer Close = %v", err)
	}
	var buf bytes.Buffer
	o.WriteMetrics(&buf)
	if buf.Len() != 0 {
		t.Errorf("nil observer wrote metrics: %q", buf.String())
	}
}

func TestEmitFoldsCounters(t *testing.T) {
	o := New(Options{})
	o.Emit(Event{Engine: EngineCore, Iter: 0, Scheduled: 10, Updates: 10, EdgeReads: 40, EdgeWrites: 7, RWConflicts: 2, WWConflicts: 1, Residual: 0.5, BarrierWaitNanos: 100, DurationNanos: 1000})
	o.Emit(Event{Engine: EngineCore, Iter: 1, Scheduled: 4, Updates: 4, EdgeReads: 16, EdgeWrites: 3, RWConflicts: -1, WWConflicts: -1, Residual: 0.2, BarrierWaitNanos: 50, DurationNanos: 800})
	o.Emit(Event{Engine: EngineNetdist, Iter: 0, Messages: 100})

	stats := o.Stats()
	if len(stats) != int(numEngines) {
		t.Fatalf("Stats returned %d engines, want %d", len(stats), numEngines)
	}
	core := stats[EngineCore]
	if core.Engine != "core" {
		t.Errorf("stats[EngineCore].Engine = %q", core.Engine)
	}
	if core.Samples != 2 || core.Iterations != 2 || core.Updates != 14 {
		t.Errorf("core samples/iters/updates = %d/%d/%d, want 2/2/14", core.Samples, core.Iterations, core.Updates)
	}
	if core.EdgeReads != 56 || core.EdgeWrites != 10 {
		t.Errorf("core reads/writes = %d/%d, want 56/10", core.EdgeReads, core.EdgeWrites)
	}
	// -1 marks "no census"; it must not be subtracted from the totals.
	if core.RWConflicts != 2 || core.WWConflicts != 1 {
		t.Errorf("core RW/WW = %d/%d, want 2/1", core.RWConflicts, core.WWConflicts)
	}
	if core.BarrierWait != 150 || core.Duration != 1800 {
		t.Errorf("core wait/duration = %d/%d, want 150/1800", core.BarrierWait, core.Duration)
	}
	if core.Scheduled != 4 || core.Residual != 0.2 {
		t.Errorf("core gauges = %d/%v, want 4/0.2 (last sample)", core.Scheduled, core.Residual)
	}
	if nd := stats[EngineNetdist]; nd.Messages != 100 {
		t.Errorf("netdist messages = %d, want 100", nd.Messages)
	}
	for k := EngineKind(0); k < numEngines; k++ {
		if stats[k].Engine != k.String() {
			t.Errorf("stats[%d].Engine = %q, want %q", k, stats[k].Engine, k)
		}
	}
}

// The engine kinds are the four executors, in label order.
func TestEngineKindsAreTheFourExecutors(t *testing.T) {
	var names []string
	for k := EngineKind(0); k < numEngines; k++ {
		names = append(names, k.String())
	}
	if got, want := strings.Join(names, ","), "core,netdist,hybrid,nosync"; got != want {
		t.Fatalf("engine kinds = %s, want %s", got, want)
	}
}

func TestRingWraparoundKeepsOrder(t *testing.T) {
	o := New(Options{RingSize: 4})
	for i := int64(0); i < 10; i++ {
		o.Emit(Event{Engine: EngineNoSync, Iter: i})
	}
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Iter != want {
			t.Errorf("ring[%d].Iter = %d, want %d (oldest-first)", i, ev.Iter, want)
		}
	}
}

func TestEmitIsConcurrencySafe(t *testing.T) {
	o := New(Options{RingSize: 64})
	o.AttachSink(NewJSONLSink(io.Discard))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.Emit(Event{Engine: EngineKind(w % int(numEngines)), Iter: int64(i), Updates: 1})
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, s := range o.Stats() {
		total += s.Updates
	}
	if total != 8*500 {
		t.Errorf("total updates = %d, want %d", total, 8*500)
	}
}

func TestJSONLSinkEmitsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Consume(&Event{TimeUnixNano: 42, Engine: EngineCore, Iter: 3, Scheduled: 7, Updates: 7, EdgeReads: 21, EdgeWrites: 4, RWConflicts: 1, WWConflicts: 0, Residual: 0.35, BarrierWaitNanos: 9, DurationNanos: 99})
	s.Consume(&Event{TimeUnixNano: 43, Engine: EngineNetdist, Messages: 10})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v\n%s", err, lines[0])
	}
	if first["engine"] != "core" || first["iter"] != float64(3) || first["residual"] != 0.35 {
		t.Errorf("line 0 fields wrong: %v", first)
	}
	if _, ok := first["messages"]; ok {
		t.Error("event without messages carries a messages field")
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v\n%s", err, lines[1])
	}
	if second["engine"] != "netdist" || second["messages"] != float64(10) {
		t.Errorf("netdist fields wrong: %v", second)
	}
}

func TestJSONLSinkClosesUnderlyingFile(t *testing.T) {
	cw := &closeRecorder{}
	s := NewJSONLSink(cw)
	s.Consume(&Event{Engine: EngineCore})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !cw.closed {
		t.Error("Close did not close the underlying writer")
	}
	if !strings.Contains(cw.buf.String(), `"engine":"core"`) {
		t.Errorf("flushed output missing event: %q", cw.buf.String())
	}
}

type closeRecorder struct {
	buf    bytes.Buffer
	closed bool
}

func (c *closeRecorder) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *closeRecorder) Close() error                { c.closed = true; return nil }

func TestWriteMetricsRendersEveryEngine(t *testing.T) {
	o := New(Options{})
	o.Emit(Event{Engine: EngineHybrid, Iter: 0, Scheduled: 5, Updates: 5, EdgeReads: 12, EdgeWrites: 6})
	var buf bytes.Buffer
	o.WriteMetrics(&buf)
	text := buf.String()
	for k := EngineKind(0); k < numEngines; k++ {
		if !strings.Contains(text, fmt.Sprintf("ndgraph_samples_total{engine=%q}", k.String())) {
			t.Errorf("/metrics missing engine %q", k)
		}
	}
	for _, want := range []string{
		`ndgraph_updates_total{engine="hybrid"} 5`,
		`ndgraph_edge_reads_total{engine="hybrid"} 12`,
		`ndgraph_edge_writes_total{engine="hybrid"} 6`,
		`ndgraph_scheduled_last{engine="hybrid"} 5`,
		"# TYPE ndgraph_updates_total counter",
		"# TYPE ndgraph_residual_last gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	o := New(Options{})
	o.Emit(Event{Engine: EngineNetdist, Iter: 2, Updates: 9})
	o.PublishExpvar("obs-http-test")
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, `ndgraph_updates_total{engine="netdist"} 9`) {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body := get("/events")
	if code != http.StatusOK {
		t.Fatalf("/events = %d", code)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/events is not JSON: %v", err)
	}
	if len(evs) != 1 || evs[0]["engine"] != "netdist" {
		t.Errorf("/events = %v", evs)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "obs-http-test") {
		t.Errorf("/debug/vars = %d (published var missing)", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestNilHandlerServes503(t *testing.T) {
	var o *Observer
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("nil observer /metrics = %d, want 503", resp.StatusCode)
	}
}

func TestPublishExpvarRebindsWithoutPanic(t *testing.T) {
	a := New(Options{})
	b := New(Options{})
	a.Emit(Event{Engine: EngineCore, Updates: 1})
	b.Emit(Event{Engine: EngineCore, Updates: 2})
	a.PublishExpvar("obs-rebind-test")
	b.PublishExpvar("obs-rebind-test") // expvar.Publish would panic here
}

func TestObserverCloseClosesSinksOnce(t *testing.T) {
	o := New(Options{})
	cw := &closeRecorder{}
	o.AttachSink(NewJSONLSink(cw))
	o.Emit(Event{Engine: EngineHybrid, Updates: 3})
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if !cw.closed {
		t.Error("observer Close did not close attached sink")
	}
	// Emit after Close still folds counters, with no sink to deliver to.
	o.Emit(Event{Engine: EngineHybrid, Updates: 1})
	if got := o.Stats()[EngineHybrid].Updates; got != 4 {
		t.Errorf("post-Close updates = %d, want 4", got)
	}
}

func BenchmarkEmitJSONL(b *testing.B) {
	o := New(Options{})
	o.AttachSink(NewJSONLSink(bufio.NewWriter(io.Discard)))
	ev := Event{TimeUnixNano: 1, Engine: EngineCore, Iter: 1, Scheduled: 100, Updates: 100, EdgeReads: 500, EdgeWrites: 50, Residual: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(ev)
	}
}
