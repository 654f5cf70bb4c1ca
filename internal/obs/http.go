package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"time"
)

// WriteMetrics renders the accumulated per-engine counters in the
// Prometheus text exposition format. Every engine kind is rendered even at
// zero, so one scrape always shows the full executor inventory.
func (o *Observer) WriteMetrics(w io.Writer) {
	if o == nil {
		return
	}
	stats := o.Stats()
	writeHeader := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	counter := func(name, help string, get func(EngineStats) int64) {
		writeHeader(name, help, "counter")
		for _, s := range stats {
			fmt.Fprintf(w, "%s{engine=%q} %d\n", name, s.Engine, get(s))
		}
	}
	gauge := func(name, help string, get func(EngineStats) string) {
		writeHeader(name, help, "gauge")
		for _, s := range stats {
			fmt.Fprintf(w, "%s{engine=%q} %s\n", name, s.Engine, get(s))
		}
	}
	counter("ndgraph_samples_total", "Telemetry events emitted.",
		func(s EngineStats) int64 { return s.Samples })
	counter("ndgraph_iterations_total", "Iterations (or sample windows) completed.",
		func(s EngineStats) int64 { return s.Iterations })
	counter("ndgraph_updates_total", "Vertex update functions executed.",
		func(s EngineStats) int64 { return s.Updates })
	counter("ndgraph_edge_reads_total", "Edge-data words read.",
		func(s EngineStats) int64 { return s.EdgeReads })
	counter("ndgraph_edge_writes_total", "Edge-data words written.",
		func(s EngineStats) int64 { return s.EdgeWrites })
	counter("ndgraph_rw_conflicts_total", "Census-classified read-write conflict edges.",
		func(s EngineStats) int64 { return s.RWConflicts })
	counter("ndgraph_ww_conflicts_total", "Census-classified write-write conflict edges.",
		func(s EngineStats) int64 { return s.WWConflicts })
	counter("ndgraph_barrier_wait_nanoseconds_total", "Summed per-worker barrier-wait (load imbalance).",
		func(s EngineStats) int64 { return s.BarrierWait })
	counter("ndgraph_busy_nanoseconds_total", "Wall time spent inside sampled iterations.",
		func(s EngineStats) int64 { return s.Duration })
	counter("ndgraph_messages_total", "Distributed updates delivered.",
		func(s EngineStats) int64 { return s.Messages })
	counter("ndgraph_trace_commits_total", "Edge commits recorded by the execution-path trace.",
		func(s EngineStats) int64 { return s.TraceCommits })
	counter("ndgraph_contested_commits_total", "Trace-recorded commits to an edge already committed in the same iteration (racy-winner sites).",
		func(s EngineStats) int64 { return s.ContestedCommits })
	counter("ndgraph_steals_total", "Successful work-steals from another worker's deque.",
		func(s EngineStats) int64 { return s.Steals })
	counter("ndgraph_idle_transitions_total", "Worker busy-to-idle transitions (work-stealing executors).",
		func(s EngineStats) int64 { return s.IdleTransitions })
	gauge("ndgraph_scheduled_last", "Scheduled-set size of the most recent sample.",
		func(s EngineStats) string { return strconv.FormatInt(s.Scheduled, 10) })
	gauge("ndgraph_residual_last", "Convergence residual (active fraction) of the most recent sample.",
		func(s EngineStats) string { return strconv.FormatFloat(s.Residual, 'g', 6, 64) })

	if delays := o.DelaySnapshots(); len(delays) > 0 {
		writeHeader("ndgraph_delay_reads_total", "Reads observed by the engine's delay clock.", "counter")
		for _, d := range delays {
			fmt.Fprintf(w, "ndgraph_delay_reads_total{engine=%q} %d\n", d.Engine, d.Count)
		}
		writeHeader("ndgraph_delay_overflow_total", "Delay-clock reads that saturated the histogram range.", "counter")
		for _, d := range delays {
			fmt.Fprintf(w, "ndgraph_delay_overflow_total{engine=%q} %d\n", d.Engine, d.Overflow)
		}
		writeHeader("ndgraph_delay_epochs", "Read staleness in epochs, by quantile (the live empirical delay bound).", "gauge")
		for _, d := range delays {
			fmt.Fprintf(w, "ndgraph_delay_epochs{engine=%q,quantile=\"0.5\"} %d\n", d.Engine, d.P50)
			fmt.Fprintf(w, "ndgraph_delay_epochs{engine=%q,quantile=\"0.9\"} %d\n", d.Engine, d.P90)
			fmt.Fprintf(w, "ndgraph_delay_epochs{engine=%q,quantile=\"0.99\"} %d\n", d.Engine, d.P99)
			fmt.Fprintf(w, "ndgraph_delay_epochs{engine=%q,quantile=\"1\"} %d\n", d.Engine, d.Max)
		}
	}

	if fn := o.workerStatsFn(); fn != nil {
		workers := fn()
		renderWorker := func(name, help, typ string, get func(WorkerStats) int64) {
			writeHeader(name, help, typ)
			for _, ws := range workers {
				fmt.Fprintf(w, "%s{worker=%q} %d\n", name, ws.Worker, get(ws))
			}
		}
		renderWorker("ndgraph_worker_heartbeats_total", "Heartbeats received from the worker by the supervisor.", "counter",
			func(ws WorkerStats) int64 { return ws.Heartbeats })
		renderWorker("ndgraph_worker_retransmits_total", "Data batches re-sent by the worker after ack timeout.", "counter",
			func(ws WorkerStats) int64 { return ws.Retransmits })
		renderWorker("ndgraph_worker_recoveries_total", "Supervised restarts (checkpoint restore + boundary repair) of the worker.", "counter",
			func(ws WorkerStats) int64 { return ws.Recoveries })
		renderWorker("ndgraph_worker_messages_total", "Data messages delivered by the worker.", "counter",
			func(ws WorkerStats) int64 { return ws.Messages })
		renderWorker("ndgraph_worker_adopted_total", "Deliveries that improved a vertex value at the worker.", "counter",
			func(ws WorkerStats) int64 { return ws.Adopted })
		renderWorker("ndgraph_worker_unacked", "In-flight unacknowledged batches at the worker.", "gauge",
			func(ws WorkerStats) int64 { return ws.Unacked })
	}
}

// SetTraceSource installs the /trace endpoint's payload producer: a
// function that writes the current execution-path trace (conventionally
// the NDTR binary format) to w. Passing nil uninstalls it (the endpoint
// then serves 404). Safe on nil (no-op).
func (o *Observer) SetTraceSource(fn func(w io.Writer) error) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.traceSource = fn
	o.mu.Unlock()
}

func (o *Observer) traceSourceFn() func(io.Writer) error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.traceSource
}

// buildInfo renders the binary's build identity from
// runtime/debug.ReadBuildInfo as JSON: Go version, module path/version,
// and the VCS revision stamped by the toolchain when available.
func buildInfo() map[string]string {
	out := map[string]string{"available": "false"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["available"] = "true"
	out["go_version"] = bi.GoVersion
	out["path"] = bi.Path
	out["module"] = bi.Main.Path
	out["module_version"] = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified":
			out[s.Key] = s.Value
		}
	}
	return out
}

// registerHealth wires the endpoints that must answer whether or not
// telemetry is enabled: /healthz (pure liveness: 200 as long as the
// process serves HTTP), /readyz (application readiness: 200 only when
// every installed ReadyCheck passes), and /buildinfo (binary identity).
//
// The liveness/readiness split matters for supervision: a restarting
// netdist worker is alive (do not kill it again) but not ready (do not
// route messages or queries to it). /healthz therefore never consults
// application state, and /readyz fails closed — no readiness source
// installed means 503.
func registerHealth(mux *http.ServeMux, o *Observer) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		type verdict struct {
			Ready  bool         `json:"ready"`
			Checks []ReadyCheck `json:"checks,omitempty"`
			Reason string       `json:"reason,omitempty"`
		}
		w.Header().Set("Content-Type", "application/json")
		render := func(status int, v verdict) {
			w.WriteHeader(status)
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			_ = enc.Encode(v)
		}
		fn := o.readinessFn()
		if fn == nil {
			render(http.StatusServiceUnavailable, verdict{Ready: false, Reason: "no readiness source installed"})
			return
		}
		checks := fn()
		for _, c := range checks {
			if !c.OK {
				render(http.StatusServiceUnavailable, verdict{Ready: false, Checks: checks})
				return
			}
		}
		render(http.StatusOK, verdict{Ready: true, Checks: checks})
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(buildInfo())
	})
}

// Handler returns the observability endpoint: /metrics (Prometheus text),
// /statusz (the live progress plane: phase, residual curve, staleness
// quantiles, steal/idle rates, worker aggregates — JSON, or HTML with
// ?format=html), /events (the ring buffer as JSON), /healthz (liveness), /readyz
// (readiness, driven by SetReadiness), /buildinfo, /trace (the current
// execution-path trace, when a source is installed), /debug/vars (expvar),
// and /debug/pprof (the standard profiling suite). Workers of labeled
// pools carry pprof goroutine labels, so /debug/pprof/profile attributes
// CPU time to engines. Safe on nil (a handler that serves 503 for
// everything except /healthz, /readyz, and /buildinfo; /readyz then
// always reports not ready).
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	registerHealth(mux, o)
	if o == nil {
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "observability disabled", http.StatusServiceUnavailable)
		})
		return mux
	}
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		fn := o.traceSourceFn()
		if fn == nil {
			http.Error(w, "no trace source installed", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="run.ndt"`)
		if err := fn(w); err != nil {
			// Headers are already out; the best we can do is cut the
			// connection so the client sees a short read, not a valid file.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus text exposition format, version pinned per the
		// exposition spec so scrapers negotiate correctly.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.WriteMetrics(w)
	})
	mux.HandleFunc("/statusz", o.serveStatusz)
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		type jsonEvent struct {
			Engine string `json:"engine"`
			Event
		}
		evs := o.Events()
		out := make([]jsonEvent, len(evs))
		for i, ev := range evs {
			out[i] = jsonEvent{Engine: ev.Engine.String(), Event: ev}
		}
		_ = enc.Encode(out)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts the observability endpoint on addr (e.g. ":6060", or ":0"
// to pick a free port) in a background goroutine and returns immediately.
func Serve(addr string, o *Observer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}
