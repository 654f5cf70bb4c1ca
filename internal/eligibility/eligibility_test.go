package eligibility

import (
	"strings"
	"testing"
)

func TestNoConflictsTriviallyEligible(t *testing.T) {
	v := Advise(Properties{Name: "x"}, ConflictProfile{})
	if !v.Eligible || v.Theorem != 1 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestPageRankProfileTheorem1(t *testing.T) {
	p := Properties{
		Name:                   "pagerank",
		ConvergesSynchronously: true,
		ConvergesDetAsync:      true,
		Monotonic:              false,
		Convergence:            Approximate,
	}
	v := Advise(p, ConflictProfile{RW: 1000})
	if !v.Eligible || v.Theorem != 1 {
		t.Fatalf("verdict = %+v", v)
	}
	if v.DeterministicResults {
		t.Fatal("approximate-convergence algorithm flagged as reproducible")
	}
	if !strings.Contains(v.String(), "Theorem 1") {
		t.Fatalf("String() = %q", v.String())
	}
}

func TestWCCProfileTheorem2(t *testing.T) {
	p := Properties{
		Name:              "wcc",
		ConvergesDetAsync: true,
		Monotonic:         true,
		Convergence:       Absolute,
	}
	v := Advise(p, ConflictProfile{RW: 10, WW: 500})
	if !v.Eligible || v.Theorem != 2 {
		t.Fatalf("verdict = %+v", v)
	}
	if !v.DeterministicResults {
		t.Fatal("monotone absolute algorithm not flagged reproducible")
	}
}

func TestNonMonotoneWithWWNotEligible(t *testing.T) {
	p := Properties{
		Name:              "coloring",
		ConvergesDetAsync: true,
		Monotonic:         false,
		Convergence:       Absolute,
	}
	v := Advise(p, ConflictProfile{WW: 5})
	if v.Eligible {
		t.Fatalf("non-monotone WW algorithm declared eligible: %+v", v)
	}
	if !strings.Contains(v.String(), "NOT ELIGIBLE") {
		t.Fatalf("String() = %q", v.String())
	}
	if len(v.Reasons) == 0 {
		t.Fatal("no reasons given")
	}
}

func TestWWWithoutDetAsyncPremise(t *testing.T) {
	p := Properties{Monotonic: true, ConvergesDetAsync: false}
	v := Advise(p, ConflictProfile{WW: 1})
	if v.Eligible {
		t.Fatalf("missing det-async premise but eligible: %+v", v)
	}
}

func TestRWOnlyViaDetAsyncExtension(t *testing.T) {
	// The paper extends Theorem 1 to algorithms that converge under a
	// deterministic asynchronous scheduler.
	p := Properties{ConvergesSynchronously: false, ConvergesDetAsync: true}
	v := Advise(p, ConflictProfile{RW: 3})
	if !v.Eligible || v.Theorem != 1 {
		t.Fatalf("verdict = %+v", v)
	}
	found := false
	for _, r := range v.Reasons {
		if strings.Contains(r, "deterministic asynchronous") {
			found = true
		}
	}
	if !found {
		t.Fatal("extension premise not cited in reasons")
	}
}

func TestRWOnlyNoPremiseNotEligible(t *testing.T) {
	v := Advise(Properties{}, ConflictProfile{RW: 3})
	if v.Eligible {
		t.Fatalf("no-premise RW algorithm eligible: %+v", v)
	}
}

func TestConditionString(t *testing.T) {
	if Absolute.String() != "absolute" || Approximate.String() != "approximate" {
		t.Fatal("Condition.String mismatch")
	}
}

func TestVerdictNoSyncGate(t *testing.T) {
	var nilV *Verdict
	if err := nilV.NoSync(); err == nil {
		t.Error("nil verdict admitted")
	}
	bad := &Verdict{Eligible: false, Reasons: []string{"WW without monotonicity", "no det-async premise"}}
	if err := bad.NoSync(); err == nil {
		t.Error("ineligible verdict admitted")
	} else if !strings.Contains(err.Error(), "WW without monotonicity") {
		t.Errorf("refusal lost the verdict's reasons: %v", err)
	}
	malformed := &Verdict{Eligible: true, Theorem: 3}
	if err := malformed.NoSync(); err == nil {
		t.Error("unknown-theorem verdict admitted")
	}
	for _, th := range []int{1, 2} {
		ok := &Verdict{Eligible: true, Theorem: th}
		if err := ok.NoSync(); err != nil {
			t.Errorf("Theorem %d verdict refused: %v", th, err)
		}
	}
}

// TestCertificateVerdictGates pins what a certificate is judged on: the
// recorded theorem, nosync_ok and deterministic_results must match their
// re-derivation, and nothing else in the JSON matters. The first two rows
// carry a gate an older schema recorded; it decodes as an unknown field
// and neither admits nor refuses anything.
func TestCertificateVerdictGates(t *testing.T) {
	const oldGate = `, "epsilon_stop_ok": true`
	const pagerank = `"name": "pagerank", "kind": "update", "source_hash": "fnv1a:0",
		"profile": {"ReadsIn": true, "WritesOut": true, "WritesVertex": true},
		"props": {"Name": "pagerank", "ConvergesSynchronously": true, "ConvergesDetAsync": true, "Convergence": 1}`
	const coloring = `"name": "coloring", "kind": "update", "source_hash": "fnv1a:0",
		"profile": {"ReadsIn": true, "ReadsOut": true, "WritesIn": true, "WritesOut": true, "WritesVertex": true},
		"props": {"Name": "coloring", "ConvergesDetAsync": true}`
	cases := []struct {
		name, json   string
		inconsistent bool // Verdict() must refuse the certificate itself
		admitted     bool // the verdict passes the NoSync gate
	}{
		{name: "old schema, eligible", admitted: true,
			json: `[{` + pagerank + `, "theorem": 1, "nosync_ok": true` + oldGate + `}]`},
		{name: "old schema, ineligible",
			json: `[{` + coloring + oldGate + `}]`},
		{name: "flipped nosync_ok", inconsistent: true,
			json: `[{` + pagerank + `, "theorem": 1}]`},
		{name: "forged nosync_ok", inconsistent: true,
			json: `[{` + coloring + `, "nosync_ok": true}]`},
		{name: "wrong theorem", inconsistent: true,
			json: `[{` + pagerank + `, "theorem": 2, "nosync_ok": true}]`},
		{name: "forged deterministic_results", inconsistent: true,
			json: `[{` + pagerank + `, "theorem": 1, "nosync_ok": true, "deterministic_results": true}]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			certs, err := DecodeCertificates([]byte(tc.json))
			if err != nil || len(certs) != 1 {
				t.Fatalf("decode: %v (%d certificates)", err, len(certs))
			}
			v, err := certs[0].Verdict()
			if tc.inconsistent {
				if err == nil || !strings.Contains(err.Error(), "inconsistent") {
					t.Fatalf("Verdict() = %v, %v; want an inconsistency refusal", v, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := v.NoSync() == nil; got != tc.admitted {
				t.Errorf("NoSync admitted = %v, want %v (%v)", got, tc.admitted, v.NoSync())
			}
		})
	}
}
