// Package eligibility operationalizes the paper's central question — "is
// your graph algorithm eligible for nondeterministic execution?" — as an
// advisor that combines declared algorithm properties with an observed
// conflict profile and answers with the applicable sufficient condition:
//
//   - Theorem 1: the algorithm converges under the synchronous (BSP) model
//     and its nondeterministic execution produces only read-write conflicts
//     on edges ⇒ it converges nondeterministically. (The paper extends the
//     premise to algorithms that converge under a deterministic
//     asynchronous scheduler, since the same chain-to-convergence exists.)
//   - Theorem 2: the algorithm converges under deterministic asynchronous
//     execution and is monotonic ⇒ it converges nondeterministically even
//     with write-write conflicts, recovering from corrupted edge values.
//
// The conflict profile is gathered by probing: one instrumented
// deterministic run classifies each edge's logical conflicts (package
// edgedata's census), which depend on the algorithm's access pattern, not
// on timing, so a sequential probe is faithful.
package eligibility

import (
	"fmt"
	"strings"
)

// Condition describes how an algorithm detects convergence.
type Condition int

const (
	// Absolute: convergence is a predicate on exact values (e.g. "no label
	// changed"). Traversal algorithms use this; their nondeterministic
	// final results equal the deterministic ones.
	Absolute Condition = iota
	// Approximate: convergence is a relative threshold between old and new
	// values (e.g. |f(D_v) − D_v| < ε). Fixed-point iterations use this;
	// their nondeterministic results vary run to run (Section V-C).
	Approximate
)

// String names the condition.
func (c Condition) String() string {
	if c == Absolute {
		return "absolute"
	}
	return "approximate"
}

// Properties are the facts an algorithm declares about itself — the
// premises of the two theorems.
type Properties struct {
	// Name identifies the algorithm in reports.
	Name string
	// ConvergesSynchronously: the algorithm converges under the BSP model
	// (Theorem 1's premise).
	ConvergesSynchronously bool
	// ConvergesDetAsync: the algorithm converges under a deterministic
	// asynchronous scheduler (Theorem 2's premise, and the extension of
	// Theorem 1).
	ConvergesDetAsync bool
	// Monotonic: the computed values move in only one direction (the
	// second premise of Theorem 2).
	Monotonic bool
	// Convergence describes the convergence condition, which decides
	// whether nondeterministic results are reproducible.
	Convergence Condition
}

// ConflictProfile is the observed classification of edge conflicts.
type ConflictProfile struct {
	// RW counts edges with read-write conflicts (one endpoint update reads
	// while the other writes, same iteration).
	RW uint64
	// WW counts edges with write-write conflicts (both endpoint updates
	// write, same iteration).
	WW uint64
}

// Verdict is the advisor's answer.
type Verdict struct {
	// Eligible reports whether nondeterministic execution is covered by a
	// sufficient condition.
	Eligible bool
	// Source records how the conflict profile was obtained: "probe" for an
	// instrumented runtime census, "cert" for the compile-time access
	// profile carried by an eligibility certificate (Certificate.Verdict),
	// "static" for a bare AdviseStatic call, or "" when unspecified.
	Source string
	// Theorem is 1 or 2 when Eligible (the applicable condition), else 0.
	Theorem int
	// DeterministicResults reports whether nondeterministic runs will
	// reproduce the deterministic final results exactly (monotone +
	// absolute convergence), as opposed to converging to run-dependent
	// values.
	DeterministicResults bool
	// Reasons explains the verdict, one finding per line.
	Reasons []string
}

// String renders the verdict for CLI output.
func (v Verdict) String() string {
	var b strings.Builder
	if v.Eligible {
		fmt.Fprintf(&b, "ELIGIBLE (Theorem %d)", v.Theorem)
		if v.DeterministicResults {
			b.WriteString(", results identical to deterministic execution")
		} else {
			b.WriteString(", results may vary run to run")
		}
	} else {
		b.WriteString("NOT ELIGIBLE")
	}
	if v.Source != "" {
		fmt.Fprintf(&b, " [source: %s]", v.Source)
	}
	for _, r := range v.Reasons {
		b.WriteString("\n  - ")
		b.WriteString(r)
	}
	return b.String()
}

// NoSync gates admission to the barrier-free work-stealing execution tier:
// the tier runs with no iteration barriers, no locks, and no coordination
// beyond per-word atomicity, so only algorithms covered by one of the
// paper's sufficient conditions (Theorem 1: RW-only conflicts + a
// convergence premise; Theorem 2: monotone + det-async convergence) may
// opt in. A nil receiver is "no verdict was obtained" and is refused —
// callers must probe the algorithm or present its certificate before
// going barrier-free.
func (v *Verdict) NoSync() error {
	if v == nil {
		return fmt.Errorf("eligibility: no-sync execution requires an eligibility verdict (from algorithms.Probe or Certificate.Verdict)")
	}
	if !v.Eligible {
		msg := "eligibility: algorithm is NOT ELIGIBLE for nondeterministic execution; no-sync tier refused"
		if len(v.Reasons) > 0 {
			msg += ": " + strings.Join(v.Reasons, "; ")
		}
		return fmt.Errorf("%s", msg)
	}
	if v.Theorem != 1 && v.Theorem != 2 {
		return fmt.Errorf("eligibility: verdict eligible but covered by no known theorem (%d); no-sync tier refused", v.Theorem)
	}
	return nil
}

// Advise applies the paper's sufficient conditions to the declared
// properties and observed conflicts.
func Advise(p Properties, c ConflictProfile) Verdict {
	v := Verdict{}
	switch {
	case c.WW == 0 && c.RW == 0:
		v.Eligible = true
		v.Theorem = 1
		v.Reasons = append(v.Reasons,
			"no edge conflicts observed: concurrent updates never compete, nondeterministic execution is trivially safe")
	case c.WW > 0:
		// Write-write conflicts demand Theorem 2.
		if p.ConvergesDetAsync && p.Monotonic {
			v.Eligible = true
			v.Theorem = 2
			v.Reasons = append(v.Reasons,
				fmt.Sprintf("write-write conflicts on %d edge(s); algorithm converges det-async and is monotonic, so corrupted values are recovered (Theorem 2)", c.WW))
		} else {
			if !p.Monotonic {
				v.Reasons = append(v.Reasons,
					fmt.Sprintf("write-write conflicts on %d edge(s) but the algorithm is not monotonic: corrupted edge values may never be corrected", c.WW))
			}
			if !p.ConvergesDetAsync {
				v.Reasons = append(v.Reasons,
					"algorithm does not converge under deterministic asynchronous execution, so Theorem 2's premise fails")
			}
			return v
		}
	default: // RW only
		if p.ConvergesSynchronously || p.ConvergesDetAsync {
			v.Eligible = true
			v.Theorem = 1
			premise := "synchronous"
			if !p.ConvergesSynchronously {
				premise = "deterministic asynchronous"
			}
			v.Reasons = append(v.Reasons,
				fmt.Sprintf("only read-write conflicts (%d edge(s)); algorithm converges under the %s model, so results propagate along the convergence chain in finite iterations (Theorem 1)", c.RW, premise))
		} else {
			v.Reasons = append(v.Reasons,
				"read-write conflicts present but no convergence premise holds (neither synchronous nor deterministic asynchronous)")
			return v
		}
	}
	// Result reproducibility (Section IV discussion + Section V-C).
	if v.Eligible {
		if p.Convergence == Absolute && p.Monotonic {
			v.DeterministicResults = true
			v.Reasons = append(v.Reasons,
				"convergence is an absolute condition on monotone values: final results are independent of scheduling order")
		} else {
			v.Reasons = append(v.Reasons,
				"convergence is approximate (relative ε): expect run-to-run variance in converged values (see the paper's Tables II/III)")
		}
	}
	return v
}
