package sched

import "testing"

func TestDispatchStringParse(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatal("Dispatch.String mismatch")
	}
	if d, ok := ParseDispatch("static"); !ok || d != Static {
		t.Fatal("ParseDispatch(static)")
	}
	if d, ok := ParseDispatch("dynamic"); !ok || d != Dynamic {
		t.Fatal("ParseDispatch(dynamic)")
	}
	if _, ok := ParseDispatch("guided"); ok {
		t.Fatal("ParseDispatch accepted unknown policy")
	}
}
