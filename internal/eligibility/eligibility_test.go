package eligibility

import (
	"fmt"
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
	const wcc = `"name": "wcc", "kind": "update", "source_hash": "fnv1a:0",
		"profile": {"ReadsIn": true, "ReadsOut": true, "WritesIn": true, "WritesOut": true, "WritesVertex": true},
		"props": {"Name": "wcc", "ConvergesSynchronously": true, "ConvergesDetAsync": true, "Monotonic": true}`
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
		{name: "genuine theorem 2", admitted: true,
			json: `[{` + wcc + `, "theorem": 2, "nosync_ok": true, "deterministic_results": true}]`},
		{name: "theorem 2 rewritten to 1", inconsistent: true,
			json: `[{` + wcc + `, "theorem": 1, "nosync_ok": true, "deterministic_results": true}]`},
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

// TestTheoremTable checks the advisor against the paper's two sufficient
// conditions over every combination of potential conflict classes and
// declared premises, on all three routes to a verdict: Advise on a
// census, AdviseStatic on a static profile, and a certificate recording
// the expected gates. The expected outcome is stated here, from the
// theorems, independently of Advise:
//
//   - no conflict possible: nothing competes, trivially eligible (Theorem 1);
//   - write-write conflicts: Theorem 2, which needs det-async convergence
//     and monotone values;
//   - read-write conflicts only: Theorem 1, which needs convergence under
//     the synchronous or the deterministic asynchronous model;
//
// and results are reproducible exactly when an eligible algorithm is
// monotone with an absolute convergence condition.
func TestTheoremTable(t *testing.T) {
	for bits := 0; bits < 64; bits++ {
		bit := func(i int) bool { return bits&(1<<i) != 0 }
		rw, ww := bit(0), bit(1)
		p := Properties{ConvergesSynchronously: bit(2), ConvergesDetAsync: bit(3), Monotonic: bit(4)}
		if bit(5) {
			p.Convergence = Approximate
		}
		theorem := 0
		switch {
		case !rw && !ww:
			theorem = 1
		case ww:
			if p.ConvergesDetAsync && p.Monotonic {
				theorem = 2
			}
		default:
			if p.ConvergesSynchronously || p.ConvergesDetAsync {
				theorem = 1
			}
		}
		det := theorem != 0 && p.Monotonic && p.Convergence == Absolute
		name := fmt.Sprintf("rw=%v ww=%v %+v", rw, ww, p)

		var census ConflictProfile
		var sp StaticProfile
		if rw {
			census.RW = 1
			sp.ReadsIn, sp.WritesOut = true, true
		}
		if ww {
			census.WW = 1
			sp.WritesIn, sp.WritesOut = true, true
		}
		if sp.PotentialRW() != rw || sp.PotentialWW() != ww {
			t.Fatalf("%s: profile %s does not realize the class", name, sp)
		}
		for route, v := range map[string]Verdict{"Advise": Advise(p, census), "AdviseStatic": AdviseStatic(p, sp)} {
			if v.Theorem != theorem || v.Eligible != (theorem != 0) || v.DeterministicResults != det {
				t.Errorf("%s: %s = eligible=%v theorem=%d det=%v, want theorem=%d det=%v",
					name, route, v.Eligible, v.Theorem, v.DeterministicResults, theorem, det)
			}
			if admitted := v.NoSync() == nil; admitted != (theorem != 0) {
				t.Errorf("%s: %s NoSync admitted=%v, want %v", name, route, admitted, theorem != 0)
			}
		}
		cert := Certificate{Name: "x", Kind: "update", Profile: &sp, Props: &p,
			Theorem: theorem, DeterministicResults: det, NoSyncOK: theorem != 0}
		if v, err := cert.Verdict(); err != nil {
			t.Errorf("%s: certificate carrying the theorems' gates refused: %v", name, err)
		} else if v.Theorem != theorem || v.Source != "cert" {
			t.Errorf("%s: certificate verdict theorem=%d source=%q", name, v.Theorem, v.Source)
		}
	}
}
