package fault

import (
	"strings"
	"testing"
)

// Validate must name the offending field, so a failed experiment config
// points at the exact knob instead of a generic "bad plan".
func TestPlanValidateNamesOffendingField(t *testing.T) {
	cases := []struct {
		plan  Plan
		field string
	}{
		{Plan{TornWrite: -0.1}, "Plan.TornWrite"},
		{Plan{TornWrite: 1.0}, "Plan.TornWrite"},
		{Plan{DropWrite: -1e-9}, "Plan.DropWrite"},
		{Plan{DropWrite: 2}, "Plan.DropWrite"},
		{Plan{StaleRead: -0.5}, "Plan.StaleRead"},
		{Plan{StaleRead: 1}, "Plan.StaleRead"},
		{Plan{Delay: -3}, "Plan.Delay"},
		{Plan{Delay: 1.0001}, "Plan.Delay"},
		{Plan{MaxFaults: -1}, "Plan.MaxFaults"},
		{Plan{CrashIter: -1}, "Plan.CrashIter"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil {
			t.Errorf("plan %+v accepted", tc.plan)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("plan %+v: error %q does not name %s", tc.plan, err, tc.field)
		}
	}
}

// CrashIter == 0 is the documented "crash disabled" state, not a crash at
// iteration 0: the plan must validate and an armed injector must never fire
// the crash, including at iteration 0 itself.
func TestPlanCrashIterZeroDisablesCrash(t *testing.T) {
	p := Plan{Seed: 42, CrashIter: 0}
	if err := p.Validate(); err != nil {
		t.Fatalf("CrashIter 0 rejected: %v", err)
	}
	in := mustInj(t, p)
	in.Arm(func(int, uint32) {})
	for iter := 0; iter < 10; iter++ {
		if in.CrashNow(iter) {
			t.Fatalf("CrashIter 0 fired a crash at iteration %d", iter)
		}
	}
	if s := in.Stats(); s.Crashes != 0 {
		t.Fatalf("disabled crash tallied %d crashes", s.Crashes)
	}
}

// The first boundary an engine can crash at is iteration 1 (the injector is
// armed after setup); a plan asking for iteration 1 must fire exactly once.
func TestPlanCrashIterFiresOnceAtBoundary(t *testing.T) {
	in := mustInj(t, Plan{Seed: 1, CrashIter: 1})
	in.Arm(func(int, uint32) {})
	if in.CrashNow(0) {
		t.Fatal("crash fired at iteration 0 with CrashIter 1")
	}
	if !in.CrashNow(1) {
		t.Fatal("crash did not fire at its planned boundary")
	}
	if in.CrashNow(1) {
		t.Fatal("crash fired twice")
	}
	if s := in.Stats(); s.Crashes != 1 {
		t.Fatalf("Stats.Crashes = %d, want 1", s.Crashes)
	}
}

// Probabilities at the extreme valid ends of [0, 1) must pass.
func TestPlanValidateBoundaryValues(t *testing.T) {
	good := []Plan{
		{},
		{TornWrite: 0, DropWrite: 0, StaleRead: 0, Delay: 0},
		{TornWrite: 0.999999, DropWrite: 0.999999, StaleRead: 0.999999, Delay: 0.999999},
		{MaxFaults: 0},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %+v rejected: %v", p, err)
		}
	}
}
