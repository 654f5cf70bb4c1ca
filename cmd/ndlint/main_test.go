package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests exercise the built binary through both entry points: the
// standalone package-pattern mode and the real `go vet -vettool`
// protocol, against this repository (must be clean) and against a
// scratch module with planted violations (must fail).

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ndlint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "ndlint")
	cmd := exec.Command("go", "build", "-o", binPath, ".")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building ndlint:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}

func runIn(dir string, name string, args ...string) (string, int) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		code = -1
	}
	return string(out), code
}

func TestVersionAndFlagsProtocol(t *testing.T) {
	out, code := runIn(".", binPath, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full exited %d: %s", code, out)
	}
	// cmd/go requires `<name> version <x>` with x != "devel" to build a
	// stable tool ID.
	if !regexp.MustCompile(`^ndlint version v[0-9][^\s]*\n$`).MatchString(out) {
		t.Errorf("-V=full output %q does not satisfy the vettool contract", out)
	}

	out, code = runIn(".", binPath, "-flags")
	if code != 0 {
		t.Fatalf("-flags exited %d: %s", code, out)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal([]byte(out), &flags); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out)
	}
	want := map[string]bool{"scopecheck": false, "conflictclass": false, "determinism": false, "atomicity": false}
	for _, f := range flags {
		if !f.Bool {
			t.Errorf("flag %s not declared boolean", f.Name)
		}
		delete(want, f.Name)
	}
	if len(want) != 0 {
		t.Errorf("flags output missing analyzers: %v", want)
	}
}

func TestRepoIsCleanUnderGoVet(t *testing.T) {
	out, code := runIn(repoRoot(t), "go", "vet", "-vettool="+binPath, "./...")
	if code != 0 {
		t.Errorf("go vet -vettool=ndlint ./... exited %d:\n%s", code, out)
	}
}

func TestRepoIsCleanStandalone(t *testing.T) {
	out, code := runIn(repoRoot(t), binPath, "./...")
	if code != 0 {
		t.Errorf("ndlint ./... exited %d:\n%s", code, out)
	}
}

// scratchModule writes a module with one update function violating
// scopecheck (package-level counter) and determinism (wall clock), using
// a copy of the fixture core package for the VertexView interface.
func scratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	coreSrc, err := os.ReadFile(filepath.Join(repoRoot(t), "internal", "analysis", "testdata", "src", "core", "core.go"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"go.mod":       "module scratch\n\ngo 1.22\n",
		"core/core.go": string(coreSrc),
		"bad.go": `package scratch

import (
	"time"

	"scratch/core"
)

var hits int

func Update(ctx core.VertexView) {
	hits++
	if time.Now().UnixNano()%2 == 0 {
		ctx.SetVertex(1)
	}
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestGoVetFlagsViolations(t *testing.T) {
	dir := scratchModule(t)
	out, code := runIn(dir, "go", "vet", "-vettool="+binPath, "./...")
	if code == 0 {
		t.Fatalf("go vet on planted violations exited 0:\n%s", out)
	}
	for _, frag := range []string{"[scopecheck]", `package-level variable "hits"`, "[determinism]", "time.Now"} {
		if !strings.Contains(out, frag) {
			t.Errorf("go vet output missing %q:\n%s", frag, out)
		}
	}
}

func TestStandaloneFlagsViolationsAndPassSelection(t *testing.T) {
	dir := scratchModule(t)
	out, code := runIn(dir, binPath, "./...")
	if code != 2 {
		t.Fatalf("ndlint on planted violations exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "[scopecheck]") || !strings.Contains(out, "[determinism]") {
		t.Errorf("expected both passes to fire:\n%s", out)
	}

	// Restricting to one pass must silence the other.
	out, code = runIn(dir, binPath, "-determinism", "./...")
	if code != 2 {
		t.Fatalf("ndlint -determinism exited %d, want 2:\n%s", code, out)
	}
	if strings.Contains(out, "[scopecheck]") {
		t.Errorf("-determinism still ran scopecheck:\n%s", out)
	}
	if !strings.Contains(out, "[determinism]") {
		t.Errorf("-determinism did not report the wall-clock read:\n%s", out)
	}
}

// TestCertCheck drives -certcheck against the embedded registry: the
// checked-in certs.json is current, and a copy with one perturbed source
// hash is reported STALE with a non-zero exit.
func TestCertCheck(t *testing.T) {
	root := repoRoot(t)
	registry := filepath.Join(root, "internal", "algorithms", "certs.json")
	out, code := runIn(root, binPath, "-certcheck", registry, "./internal/algorithms")
	if code != 0 || !strings.Contains(out, "certificate(s) current") {
		t.Fatalf("-certcheck on the checked-in registry exited %d:\n%s", code, out)
	}

	data, err := os.ReadFile(registry)
	if err != nil {
		t.Fatal(err)
	}
	const hash = `"source_hash": "fnv1a:`
	i := strings.Index(string(data), hash)
	if i < 0 {
		t.Fatalf("no source hash in %s", registry)
	}
	mutated := append([]byte(nil), data...)
	mutated[i+len(hash)] ^= 1 // first hash digit changed
	perturbed := filepath.Join(t.TempDir(), "certs.json")
	if err := os.WriteFile(perturbed, mutated, 0o666); err != nil {
		t.Fatal(err)
	}
	out, code = runIn(root, binPath, "-certcheck", perturbed, "./internal/algorithms")
	if code == 0 || !strings.Contains(out, "STALE") {
		t.Fatalf("-certcheck on a perturbed hash exited %d without a STALE report:\n%s", code, out)
	}
}
