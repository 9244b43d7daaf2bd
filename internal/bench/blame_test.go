package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/telemetry/blame"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata")

// blameQoSConfig is the fixed scenario every blame test shares: small
// geometry, a deadline on the low tenant, blame attached. Changing it
// invalidates the golden files (rerun with -update).
func blameQoSConfig() QoSConfig {
	return QoSConfig{
		Params: Params{Dies: 4, DriveMB: 32, Workers: 12, Writers: 4, Frames: 128,
			Warm: 1 * sim.Second, Measure: 2 * sim.Second, Seed: 42,
			Blame: &blame.Config{SlowestK: 8}},
		LowDeadline: 3 * sim.Millisecond,
	}
}

var (
	blameOnce sync.Once
	blameRes  *QoSResult
	blameErr  error
)

// blameQoS runs the shared scenario once per test binary.
func blameQoS(t *testing.T) *QoSResult {
	t.Helper()
	blameOnce.Do(func() { blameRes, blameErr = QoS(blameQoSConfig()) })
	if blameErr != nil {
		t.Fatalf("qos: %v", blameErr)
	}
	if blameRes.Blame == nil {
		t.Fatal("qos: no blame report")
	}
	return blameRes
}

// TestBlameSumsExactlyToQueueWait is the acceptance core: for every
// retained span, the blamed wait plus any unattributed residue equals
// the span's own recorded StageSchedQ duration to the nanosecond of sim
// time — and under the scheduler's no-idle invariant the residue is 0.
func TestBlameSumsExactlyToQueueWait(t *testing.T) {
	res := blameQoS(t)
	rep := res.Blame
	if res.Tel == nil || len(res.Tel.Spans()) == 0 {
		t.Fatal("no retained spans")
	}
	checked := 0
	for _, sp := range res.Tel.Spans() {
		q := sp.Durations[ioreq.StageSchedQ]
		sb := rep.Spans[sp.ID]
		if sb == nil {
			if q != 0 {
				t.Fatalf("span %d: recorded queue wait %v but no blame entry", sp.ID, q)
			}
			continue
		}
		if sb.Recorded != q {
			t.Fatalf("span %d: blame recorded %v, span recorded %v", sp.ID, sb.Recorded, q)
		}
		if got := sb.Blamed + sb.Unattributed; got != q {
			t.Fatalf("span %d: blamed %v + unattributed %v = %v != recorded %v",
				sp.ID, sb.Blamed, sb.Unattributed, got, q)
		}
		if sb.Unattributed != 0 {
			t.Fatalf("span %d: unattributed wait %v (no-idle invariant violated)", sp.ID, sb.Unattributed)
		}
		var shares sim.Time
		for _, s := range sb.Shares {
			shares += s.Wait
		}
		if shares != sb.Blamed {
			t.Fatalf("span %d: shares sum %v != blamed %v", sp.ID, shares, sb.Blamed)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no span waited at a command queue; scenario too idle to test")
	}
	if rep.Unattributed != 0 {
		t.Fatalf("report: unattributed %v of total %v", rep.Unattributed, rep.TotalWait)
	}
}

// TestBlameIdentifiesBackgroundCulprit checks the root-cause verdict on
// the two-tenant scenario: the low tenant's missed deadlines are
// dominated by background work — the db-writer program stream or the
// GC class, never the high tenant's foreground traffic — and GC
// interference is visible in the matrix.
func TestBlameIdentifiesBackgroundCulprit(t *testing.T) {
	res := blameQoS(t)
	rep := res.Blame
	if res.Low.DeadlineMisses == 0 {
		t.Fatal("low tenant missed no deadlines; scenario lost its inversion")
	}
	cs, ok := rep.DominantMissedCulprit(TagLowPriority)
	if !ok {
		t.Fatal("no blamed wait behind the low tenant's missed deadlines")
	}
	if cs.Class != sched.ClassProgram && cs.Class != sched.ClassGC {
		t.Fatalf("dominant culprit class %v (share %.2f); want background (program or gc)",
			cs.Class, cs.Share)
	}

	// Matrix-level cross-check: aggregate the low tenant's blamed wait
	// by culprit tag; the heaviest blocker stream must be a background
	// one, not the high tenant.
	byTag := map[uint32]sim.Time{}
	var gcWait sim.Time
	for _, c := range rep.Cells {
		if c.Victim.Tag != TagLowPriority {
			continue
		}
		byTag[c.Culprit.Tag] += c.Wait
		if c.Culprit.Class == sched.ClassGC {
			gcWait += c.Wait
		}
	}
	var domTag uint32
	var domWait sim.Time
	for tag, w := range byTag {
		if w > domWait || (w == domWait && tag < domTag) {
			domTag, domWait = tag, w
		}
	}
	if domWait == 0 {
		t.Fatal("no interference cells with a low-tenant victim")
	}
	if domTag == TagHighPriority {
		t.Fatalf("dominant culprit stream is the high tenant (%v of blamed wait); want a background stream", domWait)
	}
	if gcWait == 0 {
		t.Fatal("no GC interference recorded against the low tenant")
	}
}

// TestBlameExportsDeterministic reruns the identical scenario and
// requires every export — matrix table, folded stacks, JSON report — to
// be byte-identical across runs, then pins them against committed golden
// files (refresh with go test -update).
func TestBlameExportsDeterministic(t *testing.T) {
	first := blameQoS(t).Blame
	again, err := QoS(blameQoSConfig())
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	for _, exp := range []struct {
		name   string
		render func(*blame.Report) []byte
	}{
		{"matrix.txt", func(r *blame.Report) []byte { return []byte(r.TopTable(12)) }},
		{"stacks.folded", func(r *blame.Report) []byte {
			var b bytes.Buffer
			if err := r.WriteFolded(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"report.json", func(r *blame.Report) []byte {
			var b bytes.Buffer
			if err := r.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
	} {
		t.Run(exp.name, func(t *testing.T) {
			a, b := exp.render(first), exp.render(again.Blame)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s differs between two same-seed runs", exp.name)
			}
			checkGolden(t, "blame_"+exp.name, a)
		})
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from golden file %s (rerun with -update if intended)", golden)
	}
}
