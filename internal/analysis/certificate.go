package analysis

// certificate.go assembles eligibility certificates from the pass
// results: one "update" certificate per algorithm whose Properties are
// statically readable (conflictclass's profile, properties and
// AdviseStatic verdict, joined with propcheck's merge laws and source
// hash and admitcheck's residual-metric laws) and one "kernel"
// certificate per Kernel literal. The gates are the ones
// Certificate.Verdict re-derives with the same AdviseStatic call.
// cmd/ndlint -cert emits them; internal/algorithms embeds the emitted
// JSON so engine admission can accept certificates without re-running
// analysis, and the consistency test re-derives them to catch staleness.

import (
	"fmt"
	"strings"

	"ndgraph/internal/eligibility"
)

// Certificates analyzes pkg and returns the eligibility certificates it
// supports, sorted updates-then-kernels in source order. Diagnostics are
// returned alongside: a package that fails lint can still be inspected,
// but callers wiring certificates into admission should refuse to emit
// them when diags is non-empty (a refuted declaration must not certify).
func Certificates(pkg *Package) ([]eligibility.Certificate, []Diagnostic, error) {
	diags, results, err := RunAnalyzers(pkg, Default())
	if err != nil {
		return nil, nil, err
	}
	classes, _ := results[ConflictClass.Name].([]ClassReport)
	props, _ := results[PropCheck.Name].([]PropReport)
	admits, _ := results[AdmitCheck.Name].([]AdmitReport)
	kernels, _ := results[KernelCheck.Name].([]KernelReport)

	propByName := make(map[string]PropReport, len(props))
	for _, p := range props {
		propByName[p.Name] = p
	}
	admitByName := make(map[string]AdmitReport, len(admits))
	for _, a := range admits {
		admitByName[a.Name] = a
	}

	var certs []eligibility.Certificate
	for _, c := range classes {
		if c.Recv == "" || c.Verdict == nil {
			continue // no readable Properties ⇒ nothing to certify
		}
		p, a := propByName[c.Name], admitByName[c.Name]
		// SSSP builds its Name at runtime ("sssp" or "bfs" share one
		// update), so the extracted Name is empty; fall back to the
		// lower-cased receiver type, which matches the registry key.
		name := c.Props.Name
		if name == "" {
			name = strings.ToLower(c.Recv)
		}
		profile := c.Profile
		certs = append(certs, eligibility.Certificate{
			Name:                  name,
			Kind:                  "update",
			SourceHash:            p.Hash,
			Profile:               &profile,
			Props:                 c.Props,
			Theorem:               c.Verdict.Theorem,
			DeterministicResults:  c.Verdict.DeterministicResults,
			NoSyncOK:              c.Verdict.NoSync() == nil,
			MergeVerified:         p.Merge.Extracted && p.Merge.SemilatticeVerified,
			ResidualDeltaVerified: a.ResidualDeltaChecked && a.ResidualDeltaOK,
		})
	}
	for _, k := range kernels {
		if k.Name == "" {
			continue // anonymous kernels can't be matched at admission
		}
		f := k.Facts
		certs = append(certs, eligibility.Certificate{
			Name:       k.Name,
			Kind:       "kernel",
			SourceHash: k.Hash,
			Kernel: &eligibility.KernelCert{
				DirectionConsistent: f.DirectionConsistent,
				BetterIrreflexive:   f.BetterIrreflexive,
				BetterAntisymmetric: f.BetterAntisymmetric,
				BetterTransitive:    f.BetterTransitive,
				BetterTotal:         f.BetterTotal,
				EdgeIndexed:         f.EdgeIndexedDeclared,
				FirstOfferWins:      f.FirstOfferWinsDeclared,
				Unreached:           f.Unreached,
			},
		})
	}
	return certs, diags, nil
}

// CertificateFor selects a certificate by kind and name.
func CertificateFor(certs []eligibility.Certificate, kind, name string) (*eligibility.Certificate, error) {
	for i := range certs {
		if certs[i].Kind == kind && certs[i].Name == name {
			return &certs[i], nil
		}
	}
	return nil, fmt.Errorf("analysis: no %s certificate for %q", kind, name)
}
