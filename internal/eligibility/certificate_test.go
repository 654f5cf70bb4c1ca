package eligibility

import (
	"reflect"
	"testing"
)

// sampleCertificates is one update and one kernel certificate shaped like
// the embedded registry's WCC entries.
func sampleCertificates() []Certificate {
	return []Certificate{
		{
			Name: "wcc", Kind: "update", SourceHash: "fnv1a:0678b7ceb127f044",
			Profile:              &StaticProfile{ReadsIn: true, ReadsOut: true, WritesIn: true, WritesOut: true, WritesVertex: true},
			Props:                &Properties{Name: "wcc", ConvergesSynchronously: true, ConvergesDetAsync: true, Monotonic: true},
			Theorem:              2,
			DeterministicResults: true,
			NoSyncOK:             true,
			MergeVerified:        true,
		},
		{
			Name: "bfs", Kind: "kernel", SourceHash: "fnv1a:d4b5b0b92df324a4",
			Kernel: &KernelCert{
				DirectionConsistent: true, BetterIrreflexive: true, BetterAntisymmetric: true,
				BetterTransitive: true, BetterTotal: true, FirstOfferWins: true, Unreached: 0x7ff0000000000000,
			},
		},
	}
}

func TestCertificateRoundTrip(t *testing.T) {
	certs := sampleCertificates()
	data, err := EncodeCertificates(certs)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCertificates(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(certs, decoded) {
		t.Fatalf("certificates do not survive a JSON round-trip:\nencoded: %+v\ndecoded: %+v", certs, decoded)
	}
	if _, err := decoded[0].Verdict(); err != nil {
		t.Fatalf("decoded update certificate refused: %v", err)
	}
	if err := decoded[1].AdmitKernel("bfs", false, true); err != nil {
		t.Fatalf("decoded kernel certificate refused: %v", err)
	}
}

func TestCertificateStale(t *testing.T) {
	c := &sampleCertificates()[0]
	if c.Stale(c.SourceHash) {
		t.Error("certificate reports stale against its own hash")
	}
	if !c.Stale(c.SourceHash + "0") {
		t.Error("certificate does not report stale against a perturbed hash")
	}
	var none *Certificate
	if !none.Stale(c.SourceHash) {
		t.Error("a missing certificate must read as stale")
	}
}
