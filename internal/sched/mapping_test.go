package sched

import (
	"testing"

	"noftl/internal/ioreq"
)

// TestFromRequestMapping pins the ioreq.Class → sched.Class mapping
// pair by pair: the two enums are declared independently and the
// conversion is arithmetic, so a reorder in either would silently
// misroute every tagged request without this table.
func TestFromRequestMapping(t *testing.T) {
	want := map[ioreq.Class]Class{
		ioreq.ClassRead:     ClassRead,
		ioreq.ClassWAL:      ClassWAL,
		ioreq.ClassProgram:  ClassProgram,
		ioreq.ClassPrefetch: ClassPrefetch,
		ioreq.ClassGC:       ClassGC,
	}
	for rc, sc := range want {
		got, ok := FromRequest(rc)
		if !ok || got != sc {
			t.Fatalf("FromRequest(%v) = %v,%v; want %v", rc, got, ok, sc)
		}
	}
	if _, ok := FromRequest(ioreq.ClassDefault); ok {
		t.Fatal("ClassDefault must report undeclared")
	}
	if _, ok := FromRequest(ioreq.ClassGC + 1); ok {
		t.Fatal("out-of-range class must report undeclared")
	}
}
