package eligibility

import (
	"encoding/json"
	"fmt"
)

// A Certificate is the machine-readable product of the static analysis
// (internal/analysis: conflictclass's profile and properties with their
// AdviseStatic gates, propcheck's merge laws, admitcheck's residual
// metric, kernelcheck's order laws): the facts engine admission needs,
// keyed by an FNV-1a hash of the source they were derived from. Engines
// accept a certificate in place of a probe run — Verdict() re-derives
// the gate outcomes from the carried profile and properties and refuses
// a tampered certificate whose recorded gates disagree — while the hash
// lets any holder of the current analysis detect staleness (Stale) and
// force re-analysis after the function changed.
type Certificate struct {
	// Name identifies the subject: the algorithm's declared name for
	// updates ("wcc", "pagerank"), the kernel's Name field for kernels.
	Name string `json:"name"`
	// Kind is "update" (an update function + Properties + ResidualDelta)
	// or "kernel" (a paired-direction Kernel literal).
	Kind string `json:"kind"`
	// SourceHash is the FNV-1a identity of the analyzed declarations
	// ("fnv1a:<16 hex>"). Any token-level edit changes it.
	SourceHash string `json:"source_hash"`

	// Update facts (Kind == "update").
	Profile              *StaticProfile `json:"profile,omitempty"`
	Props                *Properties    `json:"props,omitempty"`
	Theorem              int            `json:"theorem,omitempty"`
	DeterministicResults bool           `json:"deterministic_results,omitempty"`
	NoSyncOK             bool           `json:"nosync_ok,omitempty"`
	// MergeVerified reports that the update's merge was compiled and the
	// semilattice laws backing a Monotonic declaration held; false means
	// unverified (outside the evaluator's fragment), not refuted — a
	// refutation is a lint failure and never becomes a certificate.
	MergeVerified bool `json:"merge_verified,omitempty"`
	// ResidualDeltaVerified reports the residual metric laws were
	// checked and held (meaningful when the algorithm declares one).
	ResidualDeltaVerified bool `json:"residual_delta_verified,omitempty"`

	// Kernel facts (Kind == "kernel").
	Kernel *KernelCert `json:"kernel,omitempty"`
}

// KernelCert is the kernel slice of a certificate: the verified order
// laws of Better and the validated capability flags.
type KernelCert struct {
	// DirectionConsistent: Message is pure and Better a verified strict
	// order, so push and pull relax the same edges to the same fixed
	// point.
	DirectionConsistent bool `json:"direction_consistent"`
	BetterIrreflexive   bool `json:"better_irreflexive"`
	BetterAntisymmetric bool `json:"better_antisymmetric"`
	BetterTransitive    bool `json:"better_transitive"`
	BetterTotal         bool `json:"better_total"`
	// FirstOfferWins is the declared capability flag the pull sweep
	// conditions on.
	FirstOfferWins bool   `json:"first_offer_wins"`
	Unreached      uint64 `json:"unreached,omitempty"`
}

// Verdict converts an update certificate into an eligibility verdict
// with Source "cert", re-deriving the gates from the carried profile and
// properties and refusing certificates whose recorded outcomes disagree
// with the re-derivation (tampering, or facts produced by incompatible
// analysis logic).
func (c *Certificate) Verdict() (*Verdict, error) {
	if c == nil {
		return nil, fmt.Errorf("eligibility: nil certificate")
	}
	if c.Kind != "update" {
		return nil, fmt.Errorf("eligibility: certificate %q is a %q certificate, not an update certificate", c.Name, c.Kind)
	}
	if c.Profile == nil || c.Props == nil {
		return nil, fmt.Errorf("eligibility: certificate %q carries no profile/properties facts", c.Name)
	}
	v := AdviseStatic(*c.Props, *c.Profile)
	if v.Theorem != c.Theorem ||
		v.DeterministicResults != c.DeterministicResults ||
		(v.NoSync() == nil) != c.NoSyncOK {
		return nil, fmt.Errorf(
			"eligibility: certificate %q is inconsistent: recorded gates (theorem=%d nosync=%v det=%v) disagree with re-derivation (theorem=%d nosync=%v det=%v) — re-run analysis",
			c.Name, c.Theorem, c.NoSyncOK, c.DeterministicResults,
			v.Theorem, v.NoSync() == nil, v.DeterministicResults)
	}
	v.Source = "cert"
	v.Reasons = append(v.Reasons,
		fmt.Sprintf("from eligibility certificate %q (%s)", c.Name, c.SourceHash))
	return &v, nil
}

// Stale reports whether the certificate no longer matches the current
// source: the holder re-hashed the analyzed declarations and got
// currentHash. A stale certificate must not admit anything — re-analyze.
func (c *Certificate) Stale(currentHash string) bool {
	return c == nil || c.SourceHash != currentHash
}

// AdmitKernel checks a kernel certificate against a concrete kernel's
// identity and declared FirstOfferWins flag — the hybrid engine's
// admission: the certificate must be a kernel certificate for the same
// name, direction-consistent, and must agree on the one capability flag
// the pull sweep conditions on.
func (c *Certificate) AdmitKernel(name string, firstOfferWins bool) error {
	if c == nil {
		return fmt.Errorf("eligibility: nil kernel certificate")
	}
	if c.Kind != "kernel" || c.Kernel == nil {
		return fmt.Errorf("eligibility: certificate %q is not a kernel certificate", c.Name)
	}
	if c.Name != name {
		return fmt.Errorf("eligibility: kernel certificate is for %q, not %q", c.Name, name)
	}
	if !c.Kernel.DirectionConsistent {
		return fmt.Errorf("eligibility: kernel %q is not certified direction-consistent; push/pull switching refused", name)
	}
	if c.Kernel.FirstOfferWins != firstOfferWins {
		return fmt.Errorf("eligibility: kernel %q FirstOfferWins=%v disagrees with certificate (%v)", name, firstOfferWins, c.Kernel.FirstOfferWins)
	}
	return nil
}

// EncodeCertificates renders certificates as indented JSON — the -cert
// output of cmd/ndlint and the embedded registry format.
func EncodeCertificates(certs []Certificate) ([]byte, error) {
	return json.MarshalIndent(certs, "", "  ")
}

// DecodeCertificates parses EncodeCertificates output.
func DecodeCertificates(data []byte) ([]Certificate, error) {
	var certs []Certificate
	if err := json.Unmarshal(data, &certs); err != nil {
		return nil, fmt.Errorf("eligibility: decoding certificates: %w", err)
	}
	return certs, nil
}
