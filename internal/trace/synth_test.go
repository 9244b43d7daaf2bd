package trace

import (
	"errors"
	"strings"
	"testing"

	"noftl/internal/blockdev"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/noftl"
	"noftl/internal/sim"
)

func TestSyntheticPatterns(t *testing.T) {
	f, err := noftl.NewPageFTL(replayDevice(), ftl.PageFTLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	span := f.LogicalPages()
	w := &sim.ClockWaiter{}
	for _, pat := range []Pattern{SeqWrite, SeqRead, RandWrite, RandRead, RandMixed70, HotWrite} {
		tr := Synthetic(pat, 300, span, 512, 1)
		res, err := Replay(tr, f, w, ReplayOptions{})
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%v: elapsed = %v", pat, res.Elapsed)
		}
		reads, writes, _ := tr.Counts()
		if got := res.ReadLat.Count() + res.WriteLat.Count(); got != reads+writes {
			t.Errorf("%v: timed %d ops, trace has %d reads + %d writes", pat, got, reads, writes)
		}
		if pat.String() == "unknown" {
			t.Errorf("pattern %d has no name", pat)
		}
	}
	// Reads must be faster than writes on SLC.
	wres, err := Replay(Synthetic(RandWrite, 200, span, 512, 2), f, w, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := Replay(Synthetic(RandRead, 200, span, 512, 3), f, w, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rres.ReadLat.Mean() >= wres.WriteLat.Mean() {
		t.Errorf("read mean %v >= write mean %v", rres.ReadLat.Mean(), wres.WriteLat.Mean())
	}

	const ops, shapeSpan = 10000, 1000
	for _, pat := range []Pattern{SeqRead, SeqWrite} {
		for i, op := range Synthetic(pat, 25, 10, 512, 1).Ops {
			if op.LPN != int64(i%10) {
				t.Fatalf("%v: op %d on page %d, want %d (wrap at span)", pat, i, op.LPN, i%10)
			}
		}
	}
	hot := 0
	for _, op := range Synthetic(HotWrite, ops, shapeSpan, 512, 1).Ops {
		if op.Kind != OpWrite || op.LPN >= shapeSpan {
			t.Fatalf("hotwrite op %+v", op)
		}
		if op.LPN <= shapeSpan/10 {
			hot++
		}
	}
	if hot < ops*3/4 {
		t.Errorf("hotwrite: %d of %d ops in the first tenth, want >= 75%%", hot, ops)
	}
	reads, writes, _ := Synthetic(RandMixed70, ops, shapeSpan, 512, 1).Counts()
	if reads+writes != ops || reads < ops*6/10 || reads > ops*8/10 {
		t.Errorf("randrw70: %d reads, %d writes, want 60-80%% reads", reads, writes)
	}
}

func TestReplayFailsBeyondCapacity(t *testing.T) {
	f, nv := replayTargets(t)
	bd := blockdev.New(f, blockdev.Config{})
	for _, c := range []struct {
		name  string
		t     Target
		pages int64
	}{
		{"faster", f, f.LogicalPages()},
		{"blockdev", bd, bd.Pages()},
		{"noftl", nv, nv.V.LogicalPages()},
	} {
		tr := &Trace{PageSize: 512, Ops: []Op{{OpWrite, 0}, {OpWrite, c.pages}}}
		_, err := Replay(tr, c.t, &sim.ClockWaiter{}, ReplayOptions{})
		if !errors.Is(err, ftl.ErrOutOfRange) || !strings.Contains(err.Error(), "op 1 ") {
			t.Errorf("%s: replaying page %d = %v, want op 1 out of range", c.name, c.pages, err)
		}
	}
}

// TestReplaysShareOneClock: a replay that follows another on the same
// device, on the same clock, finds the dies where the first left them,
// so its reads cost what they cost on an idle device. A fresh clock at
// 0 would queue them behind the first replay's whole program backlog.
func TestReplaysShareOneClock(t *testing.T) {
	const span = 400
	fill := Synthetic(SeqWrite, span, span, 512, 1)
	reads := Synthetic(RandRead, 300, span, 512, 2)
	open := func() (*flash.Device, ftl.FTL) {
		dev := replayDevice()
		f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return dev, f
	}

	_, f := open()
	w := &sim.ClockWaiter{}
	if _, err := Replay(fill, f, w, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	shared, err := Replay(reads, f, w, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	idleDev, idle := open()
	if _, err := Replay(fill, idle, &sim.ClockWaiter{}, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	idleDev.ResetTime()
	fresh, err := Replay(reads, idle, &sim.ClockWaiter{}, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if shared.ReadLat.Mean() != fresh.ReadLat.Mean() || shared.ReadLat.Max() != fresh.ReadLat.Max() {
		t.Fatalf("reads after a replay on its clock: mean %v max %v; on an idle device: mean %v max %v",
			shared.ReadLat.Mean(), shared.ReadLat.Max(), fresh.ReadLat.Mean(), fresh.ReadLat.Max())
	}
}
