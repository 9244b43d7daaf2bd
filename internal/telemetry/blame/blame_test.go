package blame

import (
	"bytes"
	"reflect"
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

// span builds a finished span whose sched-queue stage holds q.
func span(id uint64, tag uint32, q sim.Time) *ioreq.Span {
	sp := ioreq.NewSpan(id, int(id), tag)
	sp.Begin(0)
	sp.Durations[ioreq.StageSchedQ] = q
	return sp
}

func TestQueueBlame(t *testing.T) {
	// Die 0: command A serves [0,100]; B arrives at 10, waits behind A,
	// serves [100,130].
	events := []sched.Event{
		{Die: 0, Class: sched.ClassProgram, Tag: 1, Op: "program", Arrival: 0, Start: 0, End: 100, Block: 3},
		{Die: 0, Class: sched.ClassRead, Tag: 2, Op: "read", Arrival: 10, Start: 100, End: 130, Span: 7, Block: -1},
	}
	r := Analyze(events, []*ioreq.Span{span(7, 2, 90)}, Config{})
	if len(r.Cells) != 1 {
		t.Fatalf("cells = %+v", r.Cells)
	}
	c := r.Cells[0]
	if c.Victim != (Victim{Tag: 2, Class: sched.ClassRead}) {
		t.Fatalf("victim = %+v", c.Victim)
	}
	want := Culprit{Tag: 1, Class: sched.ClassProgram, Die: 0, Kind: KindQueue}
	if c.Culprit != want || c.Wait != 90 || c.Edges != 1 {
		t.Fatalf("cell = %+v", c)
	}
	sb := r.Spans[7]
	if sb == nil || sb.Blamed != 90 || sb.Unattributed != 0 || sb.Recorded != 90 {
		t.Fatalf("span blame = %+v", sb)
	}
	if r.Unattributed != 0 {
		t.Fatalf("unattributed = %d", r.Unattributed)
	}
}

func TestEraseSuspensionBlame(t *testing.T) {
	// Die 0: an erase serves [100,1100]; a read arrives at 300, is
	// served inside a suspension window [400,430], so its 100ns wait is
	// blamed on the erase; a second read arrives at 410 and waits 20ns
	// behind the first read plus 70ns of erase.
	events := []sched.Event{
		{Die: 0, Class: sched.ClassRead, Tag: 2, Op: "read", Arrival: 300, Start: 400, End: 430, Span: 1, Block: -1},
		{Die: 0, Class: sched.ClassRead, Tag: 2, Op: "read", Arrival: 410, Start: 500, End: 520, Span: 2, Block: -1},
		{Die: 0, Class: sched.ClassGC, Tag: 0, Op: "erase", Arrival: 100, Start: 100, End: 1100, Suspends: 2, Block: 9},
	}
	r := Analyze(events, []*ioreq.Span{span(1, 2, 100), span(2, 2, 90)}, Config{})
	if r.Unattributed != 0 {
		t.Fatalf("unattributed = %d (cells %+v)", r.Unattributed, r.Cells)
	}
	// Victim 1: 100ns all on the erase.
	sb := r.Spans[1]
	if sb.Blamed != 100 || len(sb.Shares) != 1 || sb.Shares[0].Culprit.Kind != KindErase {
		t.Fatalf("span1 = %+v", sb)
	}
	// Victim 2: [410,500) = erase occupancy [430,500) 70ns + read1 [410,430) 20ns.
	sb2 := r.Spans[2]
	if sb2.Blamed != 90 {
		t.Fatalf("span2 blamed = %d", sb2.Blamed)
	}
	got := map[Kind]sim.Time{}
	for _, s := range sb2.Shares {
		got[s.Culprit.Kind] += s.Wait
	}
	if got[KindErase] != 70 || got[KindQueue] != 20 {
		t.Fatalf("span2 shares = %+v", sb2.Shares)
	}
	if r.TotalWait != 100+90 {
		t.Fatalf("total wait = %d", r.TotalWait)
	}
}

func TestEraseWaitUnattributed(t *testing.T) {
	// A lone erase that waited with an idle die: its wait cannot be
	// covered and must land in Unattributed (engine robustness; the
	// real scheduler never produces this).
	events := []sched.Event{
		{Die: 0, Class: sched.ClassGC, Op: "erase", Arrival: 0, Start: 50, End: 1000, Block: 1},
	}
	r := Analyze(events, nil, Config{})
	if r.Unattributed != 50 || len(r.Cells) != 0 {
		t.Fatalf("unattributed = %d cells = %+v", r.Unattributed, r.Cells)
	}
}

func TestHazardKind(t *testing.T) {
	// Two programs into the same block: the second is program-order
	// bound to the first → hazard kind.
	events := []sched.Event{
		{Die: 1, Class: sched.ClassProgram, Tag: 1, Op: "program", Arrival: 0, Start: 0, End: 200, Block: 5},
		{Die: 1, Class: sched.ClassProgram, Tag: 2, Op: "program", Arrival: 20, Start: 200, End: 400, Block: 5},
	}
	r := Analyze(events, nil, Config{})
	if len(r.Cells) != 1 || r.Cells[0].Culprit.Kind != KindHazard || r.Cells[0].Wait != 180 {
		t.Fatalf("cells = %+v", r.Cells)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	events := []sched.Event{
		{Die: 0, Class: sched.ClassProgram, Tag: 1, Op: "program", Arrival: 0, Start: 0, End: 100, Block: 3},
		{Die: 0, Class: sched.ClassRead, Tag: 2, Op: "read", Arrival: 10, Start: 100, End: 130, Span: 7, Block: -1},
		{Die: 0, Class: sched.ClassGC, Tag: 0, Op: "erase", Arrival: 20, Start: 130, End: 1130, Block: 9},
		{Die: 1, Class: sched.ClassWAL, Tag: 3, Op: "program", Arrival: 5, Start: 8, End: 40, Span: 8, Block: 17},
		{Die: 1, Class: sched.ClassWAL, Tag: 3, Op: "program", Arrival: 6, Start: 40, End: 80, Span: 8, Block: 17},
	}
	spans := []*ioreq.Span{span(7, 2, 90), span(8, 3, 34)}
	a := Analyze(events, spans, Config{TagNames: map[uint32]string{2: "oltp", 3: "wal"}})
	b := Analyze(events, spans, Config{TagNames: map[uint32]string{2: "oltp", 3: "wal"}})
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatalf("matrix differs across runs")
	}
	for _, render := range []func(*Report, *bytes.Buffer){
		func(r *Report, w *bytes.Buffer) { w.WriteString(r.matrixTable(r.Cells)) },
		func(r *Report, w *bytes.Buffer) { _ = r.WriteFolded(w) },
		func(r *Report, w *bytes.Buffer) { _ = r.WriteJSON(w) },
		func(r *Report, w *bytes.Buffer) { w.WriteString(r.SlowestTable(4)) },
	} {
		var wa, wb bytes.Buffer
		render(a, &wa)
		render(b, &wb)
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Fatalf("render differs across identical analyses:\n%s\n--- vs ---\n%s", wa.String(), wb.String())
		}
	}
}

func TestExactSumProperty(t *testing.T) {
	// The wal span above: two commands, waits 3 + 34 = 37... build a
	// span whose recorded queue stage matches the event waits and
	// assert blamed + unattributed == recorded.
	events := []sched.Event{
		{Die: 1, Class: sched.ClassWAL, Tag: 3, Op: "program", Arrival: 5, Start: 8, End: 40, Span: 8, Block: 17},
		{Die: 1, Class: sched.ClassRead, Tag: 9, Op: "read", Arrival: 0, Start: 0, End: 8, Block: -1},
		{Die: 1, Class: sched.ClassWAL, Tag: 3, Op: "program", Arrival: 6, Start: 40, End: 80, Span: 8, Block: 17},
	}
	sp := span(8, 3, 3+34)
	r := Analyze(events, []*ioreq.Span{sp}, Config{})
	sb := r.Spans[8]
	if sb == nil || sb.Blamed+sb.Unattributed != sb.Recorded {
		t.Fatalf("blamed %d + unattributed %d != recorded %d", sb.Blamed, sb.Unattributed, sb.Recorded)
	}
	if sb.Unattributed != 0 {
		t.Fatalf("unattributed = %d", sb.Unattributed)
	}
}
