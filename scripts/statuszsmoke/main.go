// Command statuszsmoke is the CI probe for the /statusz progress plane: it
// starts a work-stealing PageRank with an observer attached, serves the
// observability endpoint on a loopback port, and polls /statusz WHILE the
// run is live, failing unless the endpoint returns well-formed JSON whose
// engine rows show real mid-run progress (and an HTML rendering on
// request). A /statusz that only works after the run would be a post-mortem
// viewer, not a progress plane. After the run it requires the residual
// curve: at least one window, each with a residual in [0, 1].
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/obs"
	"ndgraph/internal/sched"
)

// payload mirrors the /statusz JSON shape loosely: unknown fields are
// ignored, so the smoke validates structure without freezing it.
type payload struct {
	Phase   string `json:"phase"`
	Engines []struct {
		Engine  string `json:"engine"`
		Updates int64  `json:"updates"`
	} `json:"engines"`
	Delay []struct {
		Engine string `json:"engine"`
		Count  int64  `json:"count"`
	} `json:"delay"`
	Windows []struct {
		Engine   string  `json:"engine"`
		Residual float64 `json:"residual"`
	} `json:"windows"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "statuszsmoke:", err)
		os.Exit(1)
	}
}

func run() error {
	// soc-LiveJournal at modest scale: big enough that the run outlives
	// several poll rounds, small enough for a CI smoke.
	g, err := gen.Synthesize(gen.SocLiveJournal, 200, 7)
	if err != nil {
		return err
	}

	o := obs.New(obs.Options{WindowEvery: 50 * time.Millisecond})
	defer o.Close()
	srv, err := obs.Serve("127.0.0.1:0", o)
	if err != nil {
		return err
	}
	defer srv.Close()

	// A tight local threshold keeps the run draining toward quiescence for
	// many poll rounds — a long live phase to observe.
	pr := algorithms.NewPageRank(1e-10)
	done := make(chan error, 1)
	var res core.Result
	go func() {
		e, r, err := algorithms.Run(pr, g, core.Options{
			Scheduler: sched.NoSync, Threads: 4, Mode: edgedata.ModeAtomic,
			Observer: o,
		})
		if e != nil {
			e.Close()
		}
		res = r
		done <- err
	}()

	base := "http://" + srv.Addr()
	live, err := pollLive(base, done)
	if err != nil {
		return err
	}

	// HTML rendering must also serve during the run (or right after —
	// the page is the same either way).
	html, err := get(base + "/statusz?format=html")
	if err != nil {
		return err
	}
	if !strings.Contains(html, "<html") || !strings.Contains(html, "/statusz") {
		return fmt.Errorf("HTML rendering malformed: %.120q", html)
	}

	if err := <-done; err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("run did not converge (updates=%d)", res.Updates)
	}
	windows, err := residualCurve(base, o)
	if err != nil {
		return err
	}
	fmt.Printf("statusz smoke OK: live phase=%q engines=%d updates(live)=%d run updates=%d windows=%d\n",
		live.Phase, len(live.Engines), live.Engines[0].Updates, res.Updates, windows)
	return nil
}

// residualCurve flushes the observer's partial window and requires
// /statusz to serve at least one window, each with a residual (pending
// tasks over |V| for NoSync) in [0, 1]. It returns the window count.
func residualCurve(base string, o *obs.Observer) (int, error) {
	if err := o.Close(); err != nil {
		return 0, err
	}
	body, err := get(base + "/statusz")
	if err != nil {
		return 0, err
	}
	var p payload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		return 0, fmt.Errorf("/statusz returned malformed JSON: %w (%.120q)", err, body)
	}
	if len(p.Windows) == 0 {
		return 0, fmt.Errorf("/statusz served no residual window after the run")
	}
	for i, w := range p.Windows {
		if !(w.Residual >= 0 && w.Residual <= 1) {
			return 0, fmt.Errorf("/statusz window %d (%s) has residual %v, want it in [0, 1]", i, w.Engine, w.Residual)
		}
	}
	return len(p.Windows), nil
}

// pollLive polls /statusz until a snapshot shows a live engine mid-run, or
// fails if the run finishes (or 30s pass) before one is seen.
func pollLive(base string, done chan error) (payload, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			if err != nil {
				return payload{}, err
			}
			return payload{}, fmt.Errorf("run finished before a live /statusz snapshot was captured")
		default:
		}
		body, err := get(base + "/statusz")
		if err != nil {
			return payload{}, err
		}
		var p payload
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			return payload{}, fmt.Errorf("/statusz returned malformed JSON: %w (%.120q)", err, body)
		}
		for _, e := range p.Engines {
			if e.Engine == "nosync" && e.Updates > 0 && strings.Contains(p.Phase, "running") {
				return p, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return payload{}, fmt.Errorf("no live /statusz snapshot within 30s")
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}
