package algorithms

import (
	_ "embed"
	"fmt"
	"sync"

	"ndgraph/internal/eligibility"
)

// certs.json is the eligibility-certificate registry for the built-in
// algorithms and kernels, generated by
//
//	go run ./cmd/ndlint -cert ./internal/algorithms > internal/algorithms/certs.json
//
// and embedded so engine admission can accept a certificate instead of
// running a probe. The root consistency test re-derives the certificates
// from source on every run — an edit to any update function, Properties
// or kernel literal changes its FNV source hash and fails
// the test until the registry is regenerated, which is what "hash
// mismatch forces re-analysis" means operationally.
//
//go:embed certs.json
var certsJSON []byte

var certRegistry = sync.OnceValues(func() ([]eligibility.Certificate, error) {
	return eligibility.DecodeCertificates(certsJSON)
})

// EligibilityCertificates returns the embedded certificate registry.
func EligibilityCertificates() ([]eligibility.Certificate, error) {
	return certRegistry()
}

// CertificateFor returns the embedded certificate for kind
// ("update"/"kernel") and name. The "bfs" update shares SSSP's update
// function, so its update certificate is the "sssp" one.
func CertificateFor(kind, name string) (*eligibility.Certificate, error) {
	if kind == "update" && name == "bfs" {
		name = "sssp"
	}
	certs, err := certRegistry()
	if err != nil {
		return nil, err
	}
	for i := range certs {
		if certs[i].Kind == kind && certs[i].Name == name {
			return &certs[i], nil
		}
	}
	return nil, fmt.Errorf("algorithms: no embedded %s certificate for %q", kind, name)
}

// CertVerdict is the certificate-backed counterpart of Probe: it
// resolves the algorithm's embedded update certificate and converts it
// to an eligibility verdict with Source "cert", without touching a
// graph. The certificate's own consistency check refuses tampered facts.
func CertVerdict(name string) (*eligibility.Verdict, error) {
	c, err := CertificateFor("update", name)
	if err != nil {
		return nil, err
	}
	return c.Verdict()
}
