package eligibility

import "fmt"

// StaticProfile is the compile-time counterpart of ConflictProfile: instead
// of counting conflicting edges observed by a probe run, it records which
// sides of an edge an update function can touch, as determined by reading
// the function's source (package internal/analysis, pass conflictclass).
//
// The mapping to the paper's system model: edge (u→v) is accessed by f(u)
// through the Out* view calls and by f(v) through the In* calls. A conflict
// requires the two endpoint updates to access the shared word concurrently,
// so the *potential* conflict classes follow from which calls appear in the
// update function — independent of any particular graph or schedule.
type StaticProfile struct {
	// ReadsIn / ReadsOut record InEdgeVal / OutEdgeVal calls.
	ReadsIn, ReadsOut bool
	// WritesIn / WritesOut record SetInEdgeVal / SetOutEdgeVal calls.
	WritesIn, WritesOut bool
	// WritesVertex records SetVertex calls (never a conflict — D_v is
	// owned by f(v) — but useful for completeness reporting).
	WritesVertex bool
}

// PotentialRW reports whether some edge can see a read-write conflict: one
// endpoint's update writes the word while the other endpoint's reads it.
func (sp StaticProfile) PotentialRW() bool {
	return (sp.WritesOut && sp.ReadsIn) || (sp.WritesIn && sp.ReadsOut)
}

// PotentialWW reports whether some edge can see a write-write conflict:
// both endpoints' updates write the shared word.
func (sp StaticProfile) PotentialWW() bool {
	return sp.WritesIn && sp.WritesOut
}

// Class names the static conflict class: "RO" (no conflict possible —
// no edge writes, or writes the opposite endpoint never touches), "RW"
// (read-write conflicts possible, no write-write), or "WW" (write-write
// conflicts possible).
func (sp StaticProfile) Class() string {
	switch {
	case sp.PotentialWW():
		return "WW"
	case sp.PotentialRW():
		return "RW"
	default:
		return "RO"
	}
}

// Potential converts the static profile to a ConflictProfile usable with
// Advise: a possible conflict class is represented as count 1 ("at least
// one edge may conflict"), an impossible one as 0. By construction this is
// the worst case over all graphs and schedules.
func (sp StaticProfile) Potential() ConflictProfile {
	var c ConflictProfile
	if sp.PotentialRW() {
		c.RW = 1
	}
	if sp.PotentialWW() {
		c.WW = 1
	}
	return c
}

// OverApproximates reports whether the static profile is a sound upper
// bound on an observed census: every conflict class the probe saw must be
// statically possible. (The converse need not hold — a statically possible
// conflict may not materialize on a particular graph.)
func (sp StaticProfile) OverApproximates(c ConflictProfile) bool {
	if c.RW > 0 && !sp.PotentialRW() {
		return false
	}
	if c.WW > 0 && !sp.PotentialWW() {
		return false
	}
	return true
}

// String renders the profile compactly, e.g. "WW(reads in+out, writes in+out)".
func (sp StaticProfile) String() string {
	side := func(in, out bool) string {
		switch {
		case in && out:
			return "in+out"
		case in:
			return "in"
		case out:
			return "out"
		default:
			return "none"
		}
	}
	return fmt.Sprintf("%s(reads %s, writes %s)",
		sp.Class(), side(sp.ReadsIn, sp.ReadsOut), side(sp.WritesIn, sp.WritesOut))
}

// AdviseStatic applies the paper's sufficient conditions to the declared
// properties and a statically derived access profile. The verdict carries
// Source "static" so CLI output can distinguish it from a probe-based one;
// because the static profile is a worst case over all graphs, a static
// ELIGIBLE verdict is stronger than a probe-based one (it holds for every
// input), while a static NOT ELIGIBLE only says no sufficient condition
// covers the worst case — a conflict-free graph may still be fine.
func AdviseStatic(p Properties, sp StaticProfile) Verdict {
	v := Advise(p, sp.Potential())
	v.Source = "static"
	v.Reasons = append([]string{fmt.Sprintf("static access profile: %s", sp)}, v.Reasons...)
	return v
}
