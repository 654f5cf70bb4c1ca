// Root-level consistency test tying the three eligibility oracles
// together for every built-in algorithm:
//
//   - the hand-written registry algorithms.StaticProfiles (the paper's
//     worst-case conflict table),
//   - the ndlint conflictclass pass, which derives the same profiles from
//     the update functions' source, and
//   - the runtime probe census, which counts conflicts actually realized
//     on a concrete graph.
//
// The pass must reproduce the registry exactly, the static profile must
// over-approximate every probe census, and the statically extracted
// Properties and verdicts must agree with their runtime counterparts.
package ndgraph_test

import (
	"context"
	"reflect"
	"testing"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/analysis"
	"ndgraph/internal/async"
	"ndgraph/internal/core"
	"ndgraph/internal/edgedata"
	"ndgraph/internal/eligibility"
	"ndgraph/internal/gen"
	"ndgraph/internal/graph"
	"ndgraph/internal/hybrid"
)

// updateRecv maps algorithm names to the receiver type of their Update
// method, as the conflictclass pass labels its reports. BFS shares the
// SSSP update function.
var updateRecv = map[string]string{
	"pagerank":  "PageRank",
	"wcc":       "WCC",
	"sssp":      "SSSP",
	"bfs":       "SSSP",
	"spmv":      "SpMV",
	"kcore":     "KCore",
	"labelprop": "LabelProp",
	"coloring":  "Coloring",
}

func makeAlgorithm(t *testing.T, name string, g *graph.Graph) algorithms.Algorithm {
	t.Helper()
	switch name {
	case "pagerank":
		return algorithms.NewPageRank(1e-6)
	case "wcc":
		return algorithms.NewWCC()
	case "sssp":
		return algorithms.NewSSSP(g, 0, 11)
	case "bfs":
		return algorithms.NewBFS(g, 0)
	case "spmv":
		return algorithms.NewSpMV(g, 1e-6, 0.5, 12)
	case "kcore":
		return algorithms.NewKCore()
	case "labelprop":
		return algorithms.NewLabelProp()
	case "coloring":
		return algorithms.NewColoring()
	}
	t.Fatalf("unknown algorithm %q", name)
	return nil
}

func TestStaticProfilesConsistentWithProbe(t *testing.T) {
	pkgs, err := analysis.Load(".", "./internal/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	_, results, err := analysis.RunAnalyzers(pkgs[0], []*analysis.Analyzer{analysis.ConflictClass})
	if err != nil {
		t.Fatal(err)
	}
	byRecv := map[string]analysis.ClassReport{}
	for _, r := range results[analysis.ConflictClass.Name].([]analysis.ClassReport) {
		if r.Recv != "" {
			byRecv[r.Recv] = r
		}
	}

	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}

	registry := algorithms.StaticProfiles()
	names := []string{"pagerank", "wcc", "sssp", "bfs", "spmv", "kcore", "labelprop", "coloring"}
	if len(names) != len(registry) {
		t.Fatalf("registry has %d entries, want %d", len(registry), len(names))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, ok := registry[name]
			if !ok {
				t.Fatalf("no StaticProfiles entry for %q", name)
			}
			report, ok := byRecv[updateRecv[name]]
			if !ok {
				t.Fatalf("conflictclass produced no report for receiver %q", updateRecv[name])
			}

			// Oracle 1 vs 2: pass-derived profile == hand-written registry.
			if report.Profile != want {
				t.Errorf("static profile mismatch: conflictclass derived %+v, registry says %+v",
					report.Profile, want)
			}

			// Oracle 2 vs 3: static worst case bounds the runtime census.
			a := makeAlgorithm(t, name, g)
			census, probeVerdict, err := algorithms.Probe(a, g)
			if err != nil {
				t.Fatal(err)
			}
			if !want.OverApproximates(census) {
				t.Errorf("static profile %s does not over-approximate probe census %+v", want, census)
			}

			// The statically extracted Properties must equal the declared
			// ones. Name is best-effort: SSSP/BFS share an update and set
			// it from a field, which no literal can reveal.
			props := a.Properties()
			if report.Props == nil {
				t.Fatalf("conflictclass extracted no Properties for %s", name)
			}
			extracted := *report.Props
			if extracted.Name == "" {
				extracted.Name = props.Name
			}
			if extracted != props {
				t.Errorf("extracted Properties %+v != runtime Properties %+v", extracted, props)
			}

			// Verdict agreement: a static ELIGIBLE is a worst-case
			// guarantee, so the probe on any concrete graph must agree;
			// and on this graph, where the census realizes the worst case,
			// the two verdicts must coincide exactly.
			staticVerdict := eligibility.AdviseStatic(props, want)
			if staticVerdict.Source != "static" || probeVerdict.Source != "probe" {
				t.Errorf("verdict sources = %q/%q, want static/probe", staticVerdict.Source, probeVerdict.Source)
			}
			if staticVerdict.Eligible && !probeVerdict.Eligible {
				t.Errorf("static verdict ELIGIBLE but probe says not: static=%v probe=%v",
					staticVerdict.Reasons, probeVerdict.Reasons)
			}
			if staticVerdict.Eligible != probeVerdict.Eligible {
				t.Errorf("verdicts diverge on a worst-case-realizing graph: static=%v probe=%v (census %+v)",
					staticVerdict.Eligible, probeVerdict.Eligible, census)
			}
		})
	}
}

// TestCertificatesConsistent adds the fourth oracle: the embedded
// eligibility-certificate registry (internal/algorithms/certs.json) must
// be byte-equivalent to certificates freshly re-derived from source —
// any hash or fact drift fails here until `ndlint -cert` is re-run — and
// each certificate's verdict must agree with the runtime probe on a
// worst-case-realizing graph, for all eight algorithms and all three
// hybrid kernels.
func TestCertificatesConsistent(t *testing.T) {
	pkgs, err := analysis.Load(".", "./internal/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	fresh, diags, err := analysis.Certificates(pkgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic while certifying: %s", d)
	}
	embedded, err := algorithms.EligibilityCertificates()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, embedded) {
		t.Fatalf("embedded certificate registry is stale: re-run\n\tgo run ./cmd/ndlint -cert ./internal/algorithms > internal/algorithms/certs.json\nfresh:    %+v\nembedded: %+v", fresh, embedded)
	}

	// The algorithms that gather through the bulk accessors must keep an
	// extracted merge: a range loop propcheck cannot read would turn
	// "laws checked" into silent coverage loss.
	_, results, err := analysis.RunAnalyzers(pkgs[0], []*analysis.Analyzer{analysis.PropCheck})
	if err != nil {
		t.Fatal(err)
	}
	extracted := map[string]bool{}
	for _, r := range results["propcheck"].([]analysis.PropReport) {
		extracted[r.Recv] = r.Merge.Extracted
	}
	for _, recv := range []string{"PageRank", "SpMV", "SSSP", "WCC"} {
		if !extracted[recv] {
			t.Errorf("propcheck no longer extracts (*%s).Update's gather merge", recv)
		}
	}

	g, err := gen.RMAT(400, 2400, gen.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	registry := algorithms.StaticProfiles()

	names := []string{"pagerank", "wcc", "sssp", "bfs", "spmv", "kcore", "labelprop", "coloring"}
	for _, name := range names {
		t.Run("update/"+name, func(t *testing.T) {
			cert, err := algorithms.CertificateFor("update", name)
			if err != nil {
				t.Fatal(err)
			}
			if cert.Profile == nil || *cert.Profile != registry[name] {
				t.Errorf("certificate profile %+v != registry %+v", cert.Profile, registry[name])
			}

			a := makeAlgorithm(t, name, g)
			_, probeVerdict, err := algorithms.Probe(a, g)
			if err != nil {
				t.Fatal(err)
			}
			if probeNoSync := probeVerdict.NoSync() == nil; cert.NoSyncOK != probeNoSync {
				t.Errorf("certificate gate (nosync=%v) disagrees with probe census gate (nosync=%v)",
					cert.NoSyncOK, probeNoSync)
			}

			// The certificate's verdict — the engines' admission ticket —
			// must reconstruct and agree with the probe on this
			// worst-case-realizing graph.
			if cert.NoSyncOK {
				v, err := cert.Verdict()
				if err != nil {
					t.Fatal(err)
				}
				if v.Source != "cert" {
					t.Errorf("verdict source = %q, want cert", v.Source)
				}
				if v.Eligible != probeVerdict.Eligible || v.Theorem != probeVerdict.Theorem {
					t.Errorf("cert verdict (eligible=%v theorem=%d) != probe verdict (eligible=%v theorem=%d)",
						v.Eligible, v.Theorem, probeVerdict.Eligible, probeVerdict.Theorem)
				}
			}
		})
	}

	kernels := map[string]algorithms.Kernel{
		"wcc":  algorithms.WCCKernel(),
		"bfs":  algorithms.BFSKernel(0),
		"sssp": algorithms.SSSPKernel(0, make([]float64, g.M())),
	}
	for name, k := range kernels {
		t.Run("kernel/"+name, func(t *testing.T) {
			cert, err := algorithms.CertificateFor("kernel", name)
			if err != nil {
				t.Fatal(err)
			}
			if !cert.Kernel.DirectionConsistent {
				t.Error("kernel not certified direction-consistent")
			}
			if err := cert.AdmitKernel(k.Name, k.EdgeIndexed, k.FirstOfferWins); err != nil {
				t.Errorf("certificate refuses its own kernel: %v", err)
			}
			// Flag drift must be refused.
			if err := cert.AdmitKernel(k.Name, !k.EdgeIndexed, k.FirstOfferWins); err == nil {
				t.Error("certificate admitted a kernel with a drifted EdgeIndexed flag")
			}
		})
	}
}

// TestCertificateAdmitsEngines drives both certificate-accepting
// admission paths end to end without a probe: a no-sync WCC run admitted
// purely on the embedded certificate must reach the engine fixed point,
// and a certified hybrid BFS run must match its uncertified twin.
func TestCertificateAdmitsEngines(t *testing.T) {
	g, err := gen.RMAT(300, 1800, gen.DefaultRMAT, 9)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("nosync", func(t *testing.T) {
		cert, err := algorithms.CertificateFor("update", "wcc")
		if err != nil {
			t.Fatal(err)
		}
		a := algorithms.NewWCC()
		eng, err := core.NewEngine(g, core.Options{Mode: edgedata.ModeSequential})
		if err != nil {
			t.Fatal(err)
		}
		a.Setup(eng)
		x, err := async.NewNoSync(g, async.NoSyncOptions{
			Threads:     2,
			Mode:        edgedata.ModeAtomic,
			Certificate: cert, // no Verdict: the certificate IS the ticket
		})
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		if err := x.LoadFrom(eng); err != nil {
			t.Fatal(err)
		}
		res, err := x.Run(a.Update)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("certificate-admitted no-sync run did not converge")
		}

		// Same fixed point as the deterministic engine.
		ref, err := core.NewEngine(g, core.Options{Mode: edgedata.ModeSequential})
		if err != nil {
			t.Fatal(err)
		}
		a.Setup(ref)
		if _, err := ref.Run(a.Update); err != nil {
			t.Fatal(err)
		}
		for v := range x.Vertices {
			if x.Vertices[v] != ref.Vertices[v] {
				t.Fatalf("vertex %d: nosync %d != reference %d", v, x.Vertices[v], ref.Vertices[v])
			}
		}

		// A stale certificate must not admit.
		staleCert := *cert
		staleCert.NoSyncOK = false // tampered gate: Verdict() must refuse
		if _, err := async.NewNoSync(g, async.NoSyncOptions{
			Threads: 2, Mode: edgedata.ModeAtomic, Certificate: &staleCert,
		}); err == nil {
			t.Fatal("tampered certificate admitted a no-sync run")
		}
	})

	t.Run("hybrid", func(t *testing.T) {
		cert, err := algorithms.CertificateFor("kernel", "bfs")
		if err != nil {
			t.Fatal(err)
		}
		und := g.Undirected()
		k := algorithms.BFSKernel(0)

		certified, err := hybrid.NewEngine(und, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer certified.Close()
		certified.Certify(cert)
		if _, err := certified.Run(context.Background(), k); err != nil {
			t.Fatal(err)
		}

		plain, err := hybrid.NewEngine(und, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()
		if _, err := plain.Run(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		for v := range certified.Vertices {
			if certified.Vertices[v] != plain.Vertices[v] {
				t.Fatalf("vertex %d: certified %d != plain %d", v, certified.Vertices[v], plain.Vertices[v])
			}
		}

		// A certificate for a different kernel must be refused up front.
		wrong, err := algorithms.CertificateFor("kernel", "sssp")
		if err != nil {
			t.Fatal(err)
		}
		certified.Certify(wrong)
		if _, err := certified.Run(context.Background(), k); err == nil {
			t.Fatal("hybrid engine ran a BFS kernel under an SSSP certificate")
		}
	})
}
