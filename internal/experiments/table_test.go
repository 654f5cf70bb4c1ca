package experiments

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestWriteTables(t *testing.T) {
	type row struct {
		Graph    string
		Time     time.Duration `col:"time(s)"`
		Ratio    float64
		Count    int64
		unexport int
	}
	var sb strings.Builder
	err := WriteTables(&sb, []Table{{"T", []row{
		{Graph: "g1", Time: 1500 * time.Millisecond, Ratio: 1.0 / 3, Count: 7},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 || lines[0] != "=== T ===" {
		t.Fatalf("output:\n%s", sb.String())
	}
	if got := strings.Fields(lines[1]); strings.Join(got, " ") != "graph time(s) ratio count" {
		t.Fatalf("header = %q", lines[1])
	}
	if got := strings.Fields(lines[2]); strings.Join(got, " ") != "g1 1.5 0.3333 7" {
		t.Fatalf("row = %q", lines[2])
	}
	if err := WriteTables(&sb, []Table{{"bad", []int{1}}}); err == nil {
		t.Fatal("rows that are not structs were accepted")
	}
}

// TestStudiesRegistry runs every registered study at the smallest useful
// size and renders its tables: names are unique, every study states the
// claim it tests, and every table is non-empty.
func TestStudiesRegistry(t *testing.T) {
	cfg := Config{Scale: 2000, Seed: 7, Threads: []int{2}, Runs: 2, Epsilons: []float64{1e-1}, PageRankEps: 1e-2, NoAligned: raceEnabled}
	seen := map[string]bool{}
	for _, s := range Studies() {
		if s.Name == "" || seen[s.Name] || s.Name == "all" {
			t.Fatalf("study name %q is empty, reserved or repeated", s.Name)
		}
		seen[s.Name] = true
		if s.Claim == "" {
			t.Fatalf("%s: no claim", s.Name)
		}
		if testing.Short() {
			continue
		}
		tables, err := s.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", s.Name)
		}
		if err := WriteTables(io.Discard, tables); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, tab := range tables {
			if tab.Title == "" || reflect.ValueOf(tab.Rows).Len() == 0 {
				t.Fatalf("%s: table %q is untitled or empty", s.Name, tab.Title)
			}
		}
	}
}
