package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndgraph/internal/eligibility"
)

func TestScopeCheckFixtures(t *testing.T) {
	RunFixture(t, ScopeCheck, "scopecheck")
}

func TestDeterminismFixtures(t *testing.T) {
	RunFixture(t, Determinism, "determinism")
}

func TestAtomicityFixtures(t *testing.T) {
	RunFixture(t, Atomicity, "atomicity")
}

func TestConflictClassFixtures(t *testing.T) {
	results := RunFixture(t, ConflictClass, "conflictclass")
	reports, ok := results["conflictclass"].([]ClassReport)
	if !ok {
		t.Fatalf("conflictclass result has type %T", results["conflictclass"])
	}
	byRecv := map[string]ClassReport{}
	for _, r := range reports {
		if r.Recv != "" {
			byRecv[r.Recv] = r
		}
	}
	// Call-graph propagation: GoodPR's profile must union its helpers'.
	pr, ok := byRecv["GoodPR"]
	if !ok {
		t.Fatal("no report for GoodPR")
	}
	want := eligibility.StaticProfile{ReadsIn: true, WritesOut: true, WritesVertex: true}
	if pr.Profile != want {
		t.Errorf("GoodPR profile = %+v, want %+v", pr.Profile, want)
	}
	if pr.Verdict == nil || !pr.Verdict.Eligible || pr.Verdict.Theorem != 1 {
		t.Errorf("GoodPR verdict = %+v, want eligible Theorem 1", pr.Verdict)
	}
	// The bulk accessors classify as their per-edge equivalents.
	if bulk := byRecv["GoodBulkPR"]; bulk.Profile != want || bulk.Verdict == nil || bulk.Verdict.Theorem != 1 {
		t.Errorf("GoodBulkPR = profile %+v verdict %+v, want GoodPR's profile under Theorem 1", bulk.Profile, bulk.Verdict)
	}
	all := eligibility.StaticProfile{ReadsIn: true, ReadsOut: true, WritesIn: true, WritesOut: true, WritesVertex: true}
	if bulk := byRecv["GoodBulkWCC"]; bulk.Profile != all || bulk.Verdict == nil || bulk.Verdict.Theorem != 2 {
		t.Errorf("GoodBulkWCC = profile %+v verdict %+v, want every side accessed under Theorem 2", bulk.Profile, bulk.Verdict)
	}
	if osc := byRecv["BadBulkOscillator"]; osc.Profile != want {
		t.Errorf("BadBulkOscillator profile = %+v, want %+v", osc.Profile, want)
	}
	wcc, ok := byRecv["GoodWCC"]
	if !ok {
		t.Fatal("no report for GoodWCC")
	}
	if got := wcc.Profile.Class(); got != "WW" {
		t.Errorf("GoodWCC class = %s, want WW", got)
	}
	if wcc.Verdict == nil || !wcc.Verdict.Eligible || wcc.Verdict.Theorem != 2 {
		t.Errorf("GoodWCC verdict = %+v, want eligible Theorem 2", wcc.Verdict)
	}
	if wcc.Props == nil || !wcc.Props.Monotonic || wcc.Props.Name != "goodwcc" {
		t.Errorf("GoodWCC extracted props = %+v", wcc.Props)
	}
}

// TestMalformedPragmaReported checks that a reason-less pragma does not
// suppress and is itself diagnosed.
func TestMalformedPragmaReported(t *testing.T) {
	const src = `package p

var x int

//ndlint:ignore scopecheck
func touch() {
	x = 1
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}
	seed := []Diagnostic{{
		Pos:      fset.Position(f.Decls[1].Pos()),
		Category: "scopecheck",
		Message:  "writes package-level variable x",
	}}
	got := filterPragmas(pkg, seed)
	if len(got) != 2 {
		t.Fatalf("filterPragmas kept %d diagnostics, want 2 (original + malformed pragma): %v", len(got), got)
	}
	if got[0].Message != seed[0].Message {
		t.Errorf("reason-less pragma suppressed the diagnostic: %v", got)
	}
	if got[1].Category != "pragma" || !strings.Contains(got[1].Message, "malformed ndlint pragma") {
		t.Errorf("malformed pragma not reported: %v", got[1])
	}
}

// TestPragmaCoversWildcard checks the "all" pass wildcard and the
// line-above rule.
func TestPragmaCoversWildcard(t *testing.T) {
	pragmas := map[string]map[int][]pragma{
		"f.go": {10: {{pass: "all", reason: "r"}}},
	}
	for _, line := range []int{10, 11} {
		d := Diagnostic{Pos: token.Position{Filename: "f.go", Line: line}, Category: "determinism"}
		if !pragmaCovers(pragmas, d) {
			t.Errorf("line %d not covered by all-pragma on line 10", line)
		}
	}
	d := Diagnostic{Pos: token.Position{Filename: "f.go", Line: 12}, Category: "determinism"}
	if pragmaCovers(pragmas, d) {
		t.Error("line 12 covered by pragma on line 10")
	}
}

func TestPropCheckFixtures(t *testing.T) {
	results := RunFixture(t, PropCheck, "propcheck")
	byRecv := map[string]PropReport{}
	for _, r := range results["propcheck"].([]PropReport) {
		byRecv[r.Recv] = r
	}

	min, ok := byRecv["GoodMin"]
	if !ok {
		t.Fatal("no report for GoodMin")
	}
	m := min.Merge
	if !m.Extracted || m.Sites != 2 || m.AccKind != "uint64" {
		t.Errorf("GoodMin merge = %+v, want 2 extracted uint64 sites", m)
	}
	if !m.SemilatticeVerified || m.Counter != "" {
		t.Errorf("GoodMin semilattice not verified: %+v", m)
	}
	if !strings.HasPrefix(min.Hash, "fnv1a:") {
		t.Errorf("GoodMin hash = %q, want fnv1a: prefix", min.Hash)
	}

	// Bulk gathers (range over the call, index into a held slice) extract
	// to the same merge as the per-edge loops.
	if bm := byRecv["GoodBulkMin"].Merge; !bm.Extracted || bm.Sites != 2 || !bm.SemilatticeVerified {
		t.Errorf("GoodBulkMin merge = %+v, want 2 extracted sites, semilattice verified", bm)
	}
	if bs := byRecv["BadBulkSum"].Merge; !bs.Extracted || bs.Idempotent || bs.Counter == "" {
		t.Errorf("BadBulkSum merge = %+v, want extracted with an idempotence counter-example", bs)
	}

	// GoodSum's idempotence is refuted but it never claimed Monotonic, so
	// the refutation lives only in the pass result (no // want above).
	sum := byRecv["GoodSum"].Merge
	if !sum.Extracted || sum.Idempotent || sum.SemilatticeVerified {
		t.Errorf("GoodSum merge = %+v, want extracted with idempotence refuted", sum)
	}
	if !strings.Contains(sum.Counter, "idempotence") {
		t.Errorf("GoodSum counter = %q, want an idempotence counter-example", sum.Counter)
	}

	// BadSum's diagnostic (asserted by the want annotation) must carry the
	// same concrete counter-example in the report.
	bad := byRecv["BadSum"].Merge
	if bad.Counter == "" {
		t.Error("BadSum produced no counter-example")
	}

	// Disagreeing sites poison extraction rather than verifying anything.
	div := byRecv["BadDiverge"].Merge
	if div.Extracted || !strings.Contains(div.Note, "disagree") {
		t.Errorf("BadDiverge merge = %+v, want unextracted with a disagreement note", div)
	}
}

func TestKernelCheckFixtures(t *testing.T) {
	results := RunFixture(t, KernelCheck, "kernelcheck")
	byName := map[string]KernelReport{}
	for _, r := range results["kernelcheck"].([]KernelReport) {
		byName[r.Name] = r
	}

	min, ok := byName["goodmin"]
	if !ok {
		t.Fatal("no report for goodmin")
	}
	f := min.Facts
	if !f.DirectionConsistent || !f.BetterIrreflexive || !f.BetterAntisymmetric ||
		!f.BetterTransitive || !f.BetterTotal {
		t.Errorf("goodmin facts = %+v, want a fully verified strict order", f)
	}
	if min.Constructor != "GoodMin" {
		t.Errorf("goodmin constructor = %q, want GoodMin", min.Constructor)
	}

	fow := byName["goodfow"].Facts
	if !fow.FirstOfferWinsChecked || !fow.FirstOfferWinsSound || fow.Unreached != math.Float64bits(math.Inf(1)) {
		t.Errorf("goodfow facts = %+v, want checked+sound FirstOfferWins with +Inf unreached", fow)
	}

	// A Message that offers the unreached word refutes FirstOfferWins even
	// when Better never prefers it.
	fowMsg := byName["badfowmessage"].Facts
	if !fowMsg.FirstOfferWinsChecked || fowMsg.FirstOfferWinsSound || !strings.HasPrefix(fowMsg.Counter, "Message(") {
		t.Errorf("badfowmessage facts = %+v, want FirstOfferWins refuted by a Message counter-example", fowMsg)
	}

	// A Message that reads its edge index needs no flag: every executor
	// passes the canonical index.
	edge := byName["goodedge"].Facts
	if !edge.MessageCompiled || !edge.DirectionConsistent {
		t.Errorf("goodedge facts = %+v, want an edge-reading Message certified direction-consistent", edge)
	}

	neq := byName["badneq"].Facts
	if neq.BetterAntisymmetric || neq.BetterTransitive || neq.DirectionConsistent {
		t.Errorf("badneq facts = %+v, want antisymmetry and transitivity refuted", neq)
	}
	if neq.Counter == "" {
		t.Error("badneq produced no counter-example")
	}
}

// TestKernelPragmaSuppression covers the constructor-level kernelcheck
// pragma (the PR's bug fix: the pragma used to have no effect on the
// kernel path) and the malformed-pragma rule on that same path. Asserted
// directly rather than via // want: the malformed pragma's diagnostic
// lands on the pragma comment's own line, where no annotation can sit.
func TestKernelPragmaSuppression(t *testing.T) {
	loader := newFixtureLoader(t, filepath.Join("testdata", "src"))
	pkg := loader.load("kernelpragma")
	diags, results, err := RunAnalyzers(pkg, []*Analyzer{KernelCheck})
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]KernelReport{}
	for _, r := range results["kernelcheck"].([]KernelReport) {
		byName[r.Name] = r
	}
	waived, ok := byName["waived"]
	if !ok {
		t.Fatal("suppressed kernel produced no report — certificates would lose it")
	}
	if !waived.Suppressed || waived.Facts.BetterAntisymmetric {
		t.Errorf("waived report = %+v, want Suppressed with the law still refuted", waived)
	}
	if unwaived := byName["unwaived"]; unwaived.Suppressed {
		t.Error("reason-less pragma suppressed the unwaived kernel")
	}

	var kernelDiags, pragmaDiags int
	for _, d := range diags {
		switch d.Category {
		case "kernelcheck":
			kernelDiags++
			if !strings.Contains(d.Message, `"unwaived"`) {
				t.Errorf("kernelcheck diagnostic escaped the constructor pragma: %s", d)
			}
		case "pragma":
			pragmaDiags++
		}
	}
	if kernelDiags == 0 {
		t.Error("reason-less pragma silenced the kernelcheck diagnostics")
	}
	if pragmaDiags != 1 {
		t.Errorf("malformed pragma reported %d times, want 1", pragmaDiags)
	}
}

// TestCertificateStaleness mutates a fixture at the token level and
// asserts the re-derived certificate hash moves — the property that
// forces re-analysis when certified source changes.
func TestCertificateStaleness(t *testing.T) {
	tmp := t.TempDir()
	root := filepath.Join(tmp, "src")
	for _, dir := range []string{"core", "propcheck"} {
		src := filepath.Join("testdata", "src", dir)
		dst := filepath.Join(root, dir)
		if err := os.MkdirAll(dst, 0o777); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
	}

	certOf := func(loaderRoot string) *eligibility.Certificate {
		pkg := newFixtureLoader(t, loaderRoot).load("propcheck")
		certs, _, err := Certificates(pkg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CertificateFor(certs, "update", "goodsum")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	before := certOf(root)

	// Token-level, semantics-preserving mutation of GoodSum's update.
	goodPath := filepath.Join(root, "propcheck", "good.go")
	data, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), "sum := uint64(0)", "sum := uint64(0x0)", 1)
	if mutated == string(data) {
		t.Fatal("mutation found nothing to replace")
	}
	if err := os.WriteFile(goodPath, []byte(mutated), 0o666); err != nil {
		t.Fatal(err)
	}
	after := certOf(root)

	if before.SourceHash == after.SourceHash {
		t.Fatalf("hash %s unchanged across a token-level edit", before.SourceHash)
	}
	if !before.Stale(after.SourceHash) {
		t.Error("certificate does not report itself stale against the new hash")
	}
	if before.Stale(before.SourceHash) {
		t.Error("certificate reports stale against its own hash")
	}
}
