package ioreq

import (
	"testing"

	"noftl/internal/sim"
)

func TestPlainWaiterPassesThrough(t *testing.T) {
	cw := &sim.ClockWaiter{T: 5}
	if got := Plain(cw).Waiter(); got != sim.Waiter(cw) {
		t.Fatalf("intent-free Req must hand back the bare waiter, got %T", got)
	}
}

// TestReqIsTheWaiter: a descriptor with intent goes down as a *Req, time
// flows through to W, and From recovers every field.
func TestReqIsTheWaiter(t *testing.T) {
	cw := &sim.ClockWaiter{}
	sp := NewSpan(1, 7, 0)
	rq := Req{W: cw, Class: ClassGC, Tag: 7, Deadline: 42, Span: sp}
	w := rq.Waiter()
	if _, ok := w.(*Req); !ok {
		t.Fatalf("descriptor with intent must ride as *Req: %T", w)
	}
	if back := From(w); back != rq {
		t.Fatalf("From lost fields: %+v, want %+v", back, rq)
	}
	w.WaitUntil(9)
	if cw.T != 9 || w.Now() != 9 {
		t.Fatalf("*Req must delegate to W: cw=%v now=%v", cw.T, w.Now())
	}
	if got := From(cw); got != Plain(cw) {
		t.Fatalf("From on a bare waiter: %+v", got)
	}
}

// TestContextRidesAsWaiter: a long-lived descriptor handed down by
// pointer (how storage.IOCtx goes down) is the waiter itself, and what a
// later submit reads is whatever the owner set in between.
func TestContextRidesAsWaiter(t *testing.T) {
	cw := &sim.ClockWaiter{}
	ctx := &Req{W: cw, Class: ClassRead, Tag: 3}
	w := Plain(ctx).Waiter()
	if w != sim.Waiter(ctx) {
		t.Fatalf("a context-borne request must go down as the context, got %T", w)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Plain(ctx).Waiter() }); n != 0 {
		t.Fatalf("handing a context down allocated %v times", n)
	}
	sp := NewSpan(2, 3, 0)
	ctx.Deadline, ctx.Span = 500, sp
	if got := From(w); got.Deadline != 500 || got.Span != sp || got.Tag != 3 || got.Class != ClassRead {
		t.Fatalf("submit would not see the context's current state: %+v", got)
	}
}

// nested reports whether a *Req rides inside w's *Req.
func nested(w sim.Waiter) bool {
	r, ok := w.(*Req)
	if !ok {
		return false
	}
	_, in := r.W.(*Req)
	return in
}

func TestWithClassPreservesIntentAndNeverNests(t *testing.T) {
	cw := &sim.ClockWaiter{}
	sp := NewSpan(3, 3, 0)
	w := (Req{W: cw, Class: ClassWAL, Tag: 3, Deadline: 10, Span: sp}).Waiter()
	gw := WithClass(w, ClassGC)
	want := Req{W: cw, Class: ClassGC, Tag: 3, Deadline: 10, Span: sp}
	if got := From(gw); got != want {
		t.Fatalf("WithClass lost fields: %+v, want %+v", got, want)
	}
	if nested(gw) {
		t.Fatal("WithClass nested a *Req inside a *Req")
	}
	if From(w).Class != ClassWAL {
		t.Fatal("WithClass mutated the descriptor it derived from")
	}
	// Same class: no new descriptor.
	if WithClass(gw, ClassGC) != gw {
		t.Fatal("re-tagging to the same class should be a no-op")
	}
	// Bare waiter: just the class.
	if got := From(WithClass(cw, ClassGC)); got != (Req{W: cw, Class: ClassGC}) {
		t.Fatalf("WithClass on bare waiter: %+v", got)
	}
	// A by-value declaration over a context-borne waiter replaces the
	// context's and stays flat.
	ctx := &Req{W: cw, Class: ClassRead, Tag: 9}
	over := Plain(ctx).WithClass(ClassGC).Waiter()
	if nested(over) || From(over) != (Req{W: cw, Class: ClassGC}) {
		t.Fatalf("by-value intent over a context: %+v (nested=%v)", From(over), nested(over))
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassDefault: "default", ClassRead: "read", ClassWAL: "wal",
		ClassProgram: "program", ClassPrefetch: "prefetch", ClassGC: "gc",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d: %q != %q", c, c.String(), s)
		}
	}
}
