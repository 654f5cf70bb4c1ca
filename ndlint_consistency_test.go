// Root-level consistency tests tying the two eligibility oracles together
// for every built-in algorithm:
//
//   - the static one: the conflictclass pass's worst-case profile and
//     extracted Properties, gated by eligibility.AdviseStatic, as frozen
//     into the embedded certificate registry
//     (internal/algorithms/certs.json), which must equal the certificates
//     ndlint derives from source now, and
//   - the runtime probe census, which counts conflicts actually realized
//     on a concrete graph.
//
// The static profile must over-approximate every probe census, the
// statically extracted Properties must equal the runtime ones, and on a
// worst-case-realizing graph the static and certificate verdicts must
// equal the probe verdict.
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
	"ndgraph/internal/gen"
	"ndgraph/internal/hybrid"
)

// builtinNames lists the eight built-in algorithms by their
// algorithms.New name.
var builtinNames = []string{"pagerank", "wcc", "sssp", "bfs", "spmv", "kcore", "labelprop", "coloring"}

// TestStaticProfilesConsistentWithProbe runs the conflictclass pass over
// the algorithms' source and checks each built-in's static answer — the
// worst-case profile, the extracted Properties and the AdviseStatic
// verdict the certificates freeze — against the runtime probe.
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
	for _, name := range builtinNames {
		t.Run(name, func(t *testing.T) {
			a, err := algorithms.New(name, g, 0, 1e-6, 10)
			if err != nil {
				t.Fatal(err)
			}
			// The pass labels reports by the Update receiver, which is the
			// concrete type: BFS is an *SSSP and shares its update.
			recv := reflect.TypeOf(a).Elem().Name()
			report, ok := byRecv[recv]
			if !ok {
				t.Fatalf("conflictclass produced no report for receiver %q", recv)
			}
			if report.Props == nil || report.Verdict == nil {
				t.Fatalf("conflictclass extracted no Properties for %s", name)
			}

			// The static worst case bounds the runtime census.
			census, probeVerdict, err := algorithms.Probe(a, g)
			if err != nil {
				t.Fatal(err)
			}
			if !report.Profile.OverApproximates(census) {
				t.Errorf("static profile %s does not over-approximate probe census %+v", report.Profile, census)
			}

			// The statically extracted Properties must equal the declared
			// ones. Name is best-effort: SSSP/BFS share an update and set
			// it from a field, which no literal can reveal.
			props := *report.Props
			if props.Name == "" {
				props.Name = a.Properties().Name
			}
			if props != a.Properties() {
				t.Errorf("extracted Properties %+v != runtime Properties %+v", props, a.Properties())
			}

			// A static ELIGIBLE is a worst-case guarantee, and on this graph,
			// where the census realizes the worst case, the static and probe
			// verdicts must coincide exactly.
			v := *report.Verdict
			if v.Source != "static" || probeVerdict.Source != "probe" {
				t.Errorf("verdict sources = %q/%q, want static/probe", v.Source, probeVerdict.Source)
			}
			if v.Eligible != probeVerdict.Eligible || v.Theorem != probeVerdict.Theorem ||
				v.DeterministicResults != probeVerdict.DeterministicResults {
				t.Errorf("static verdict (eligible=%v theorem=%d det=%v) != probe verdict (eligible=%v theorem=%d det=%v), census %+v",
					v.Eligible, v.Theorem, v.DeterministicResults,
					probeVerdict.Eligible, probeVerdict.Theorem, probeVerdict.DeterministicResults, census)
			}
		})
	}
}

// TestCertificatesConsistent re-derives the certificates from source —
// any hash or fact drift fails here until `ndlint -cert` is re-run — and
// checks each built-in algorithm's certificate verdict against the probe
// and the admission route, and each hybrid kernel's certificate against
// the kernel.
func TestCertificatesConsistent(t *testing.T) {
	pkgs, err := analysis.Load(".", "./internal/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
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
	kinds := map[string]int{}
	for _, c := range embedded {
		kinds[c.Kind]++
	}
	if kinds["update"] != 7 || kinds["kernel"] != 3 || len(embedded) != 10 {
		t.Errorf("registry holds %v certificates, want 7 update + 3 kernel", kinds)
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
	for _, name := range builtinNames {
		t.Run("update/"+name, func(t *testing.T) {
			cert, err := algorithms.CertificateFor("update", name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := algorithms.New(name, g, 0, 1e-6, 10)
			if err != nil {
				t.Fatal(err)
			}
			// The certificate's profile and Properties are the pass's, which
			// TestStaticProfilesConsistentWithProbe checks against the probe;
			// the registry equals a fresh derivation, checked above.
			census, probeVerdict, err := algorithms.Probe(a, g)
			if err != nil {
				t.Fatal(err)
			}

			// On this graph, where the census realizes the worst case, the
			// certificate verdict — the engines' admission ticket — must
			// coincide with the probe's, and admission must pick it.
			v, err := cert.Verdict()
			if err != nil {
				t.Fatal(err)
			}
			if v.Eligible != probeVerdict.Eligible || v.Theorem != probeVerdict.Theorem ||
				v.DeterministicResults != probeVerdict.DeterministicResults {
				t.Errorf("cert verdict (eligible=%v theorem=%d det=%v) != probe verdict (eligible=%v theorem=%d det=%v), census %+v",
					v.Eligible, v.Theorem, v.DeterministicResults,
					probeVerdict.Eligible, probeVerdict.Theorem, probeVerdict.DeterministicResults, census)
			}
			admission, err := algorithms.NoSyncVerdict(a, g)
			if err != nil {
				t.Fatal(err)
			}
			if admission.Source != "cert" || admission.Theorem != v.Theorem || admission.Eligible != v.Eligible {
				t.Errorf("NoSyncVerdict = %v, want the certificate's verdict", admission)
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
