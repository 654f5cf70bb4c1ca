// Command statuszsmoke is the CI probe for the /statusz progress plane: it
// starts a work-stealing PageRank with an observer attached, serves the
// observability endpoint on a loopback port, and polls /statusz WHILE the
// run is live, failing unless the endpoint returns well-formed JSON whose
// engine rows show real mid-run progress (and an HTML rendering on
// request). A /statusz that only works after the run would be a post-mortem
// viewer, not a progress plane.
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
	"ndgraph/internal/async"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/gen"
	"ndgraph/internal/obs"
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
	v, err := algorithms.NoSyncVerdict(pr, g)
	if err != nil {
		return err
	}
	seed, err := core.NewEngine(g, core.Options{})
	if err != nil {
		return err
	}
	pr.Setup(seed)
	x, err := async.NewNoSync(g, async.NoSyncOptions{
		Threads: 4, Mode: edgedata.ModeAtomic,
		Verdict: &v, Observer: o, ResidualDelta: pr.ResidualDelta,
	})
	if err != nil {
		return err
	}
	defer x.Close()
	if err := x.LoadFrom(seed); err != nil {
		return err
	}

	done := make(chan error, 1)
	var res async.NoSyncResult
	go func() {
		r, err := x.Run(pr.Update)
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
	fmt.Printf("statusz smoke OK: live phase=%q engines=%d updates(live)=%d run updates=%d\n",
		live.Phase, len(live.Engines), live.Engines[0].Updates, res.Updates)
	return nil
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
