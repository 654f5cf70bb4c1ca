package analysis

// certificate.go assembles eligibility certificates from the pass
// results: one "update" certificate per algorithm whose Properties are
// statically readable (joining conflictclass's profile, propcheck's
// merge laws, and admitcheck's gate derivation on the shared source
// hash) and one "kernel" certificate per Kernel literal. cmd/ndlint
// -cert emits them; internal/algorithms embeds the emitted JSON so
// engine admission can accept certificates without re-running analysis,
// and the consistency test re-derives them to catch staleness.

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
	props, _ := results[PropCheck.Name].([]PropReport)
	admits, _ := results[AdmitCheck.Name].([]AdmitReport)
	kernels, _ := results[KernelCheck.Name].([]KernelReport)

	admitByHash := make(map[string]AdmitReport, len(admits))
	for _, a := range admits {
		admitByHash[a.Hash] = a
	}

	var certs []eligibility.Certificate
	for _, p := range props {
		a, ok := admitByHash[p.Hash]
		if !ok || p.Props == nil {
			continue // no readable Properties ⇒ nothing to certify
		}
		// SSSP builds its Name at runtime ("sssp" or "bfs" share one
		// update), so the extracted Name is empty; fall back to the
		// lower-cased receiver type, which matches the registry key.
		name := p.Props.Name
		if name == "" && p.Recv != "" {
			name = strings.ToLower(p.Recv)
		}
		if name == "" {
			name = p.Name
		}
		profile := a.Profile
		c := eligibility.Certificate{
			Name:                  name,
			Kind:                  "update",
			SourceHash:            p.Hash,
			Profile:               &profile,
			Props:                 p.Props,
			Theorem:               a.Theorem,
			DeterministicResults:  a.DeterministicResults,
			NoSyncOK:              a.NoSyncOK,
			MergeVerified:         p.Merge.Extracted && p.Merge.SemilatticeVerified,
			ResidualDeltaVerified: a.ResidualDeltaChecked && a.ResidualDeltaOK,
		}
		certs = append(certs, c)
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
