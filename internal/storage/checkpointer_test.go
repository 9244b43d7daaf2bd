package storage

import (
	"encoding/binary"
	"testing"

	"noftl/internal/sim"
)

// anchorCount counts the checkpoint anchors appended to a log.
type anchorCount struct {
	AppendLog
	n int
}

// Append implements AppendLog.
func (a *anchorCount) Append(ctx *IOCtx, data []byte) (int64, error) {
	if binary.LittleEndian.Uint32(data[4:]) == logAnchor {
		a.n++
	}
	return a.AppendLog.Append(ctx, data)
}

// checkpointerEngine opens an engine over data and a counted ring log of
// logPages pages, with one table.
func checkpointerEngine(t *testing.T, data Volume, logv Volume) (*Engine, *anchorCount, uint32) {
	t.Helper()
	ctx := NewIOCtx(nil)
	log := &anchorCount{AppendLog: NewVolumeLog(logv)}
	if err := FormatLog(ctx, data, log); err != nil {
		t.Fatal(err)
	}
	e, err := OpenLog(ctx, data, log, EngineConfig{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	return e, log, tbl
}

// TestCheckpointerFreesParkedCommitters: process committers on a small
// log, with the engine's checkpointer and no other, commit several logs'
// worth. The checkpointer is granted when half the log is written since
// the last anchor; a committer that finds the log three quarters held
// meanwhile parks behind that checkpoint, and resumes at its anchor.
func TestCheckpointerFreesParkedCommitters(t *testing.T) {
	const logPages = 64
	data := &DelayVolume{Volume: NewMemVolume(512, 1024), ReadDelay: 20 * sim.Microsecond, WriteDelay: 100 * sim.Microsecond}
	logv := &DelayVolume{Volume: NewMemVolume(512, logPages), WriteDelay: 20 * sim.Microsecond}
	e, log, tbl := checkpointerEngine(t, data, logv)
	wal := e.Log()
	k := sim.New()
	var fatal error
	stop := e.StartCheckpointer(k, 0, func(err error) { fatal = err })
	parks := 0
	for range 4 {
		k.Go("committer", func(p *sim.Proc) {
			c := NewIOCtx(sim.ProcWaiter{P: p})
			for wal.PagesOut <= 4*logPages && fatal == nil {
				tx := e.Begin()
				if _, err := e.Insert(c, tx, tbl, make([]byte, 64)); err != nil {
					t.Error(err)
					return
				}
				parked, anchors := wal.tight(), log.n
				if parked {
					parks++
					if !wal.ckpt.Empty() {
						t.Error("a committer parks for room with no checkpoint in flight")
					}
				}
				if err := e.Commit(c, tx); err != nil {
					t.Error(err)
					return
				}
				if parked && log.n == anchors {
					t.Errorf("a commit parked for room at %d anchors and returned with no anchor since", anchors)
					return
				}
			}
		})
	}
	k.Run()
	if fatal != nil {
		t.Fatal(fatal)
	}
	if wal.PagesOut <= 4*logPages {
		t.Fatalf("%d log pages written; want more than four %d-page logs", wal.PagesOut, logPages)
	}
	if parks == 0 {
		t.Fatal("no committer parked for room")
	}
	alive := k.Alive()
	stop()
	k.Run()
	if n := k.Alive(); n != alive-1 {
		t.Fatalf("%d processes alive after stop, want %d", n, alive-1)
	}
}

// TestParkedCommitterGrantsTheCheckpointer: a log can be three quarters
// held before half of it is written since the last anchor, when an open
// transaction held that anchor's truncation back. Once that transaction
// is gone, a committer that parks for room grants the idle checkpointer
// itself, and the anchor releases it.
func TestParkedCommitterGrantsTheCheckpointer(t *testing.T) {
	const logPages = 256
	e, log, tbl := checkpointerEngine(t, NewMemVolume(512, 1024), NewMemVolume(512, logPages))
	wal := e.Log()
	ctx := NewIOCtx(nil)
	// Serial commits anchor the log at half, kept back to the pin.
	pin := e.Begin()
	if _, err := e.Insert(ctx, pin, tbl, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	for anchors := log.n; log.n == anchors; {
		tx := e.Begin()
		if _, err := e.Insert(ctx, tx, tbl, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Abort(ctx, pin); err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	var fatal error
	e.StartCheckpointer(k, 0, func(err error) { fatal = err })
	parked, anchors := false, 0
	k.Go("committer", func(p *sim.Proc) {
		c := NewIOCtx(sim.ProcWaiter{P: p})
		for !parked {
			tx := e.Begin()
			if _, err := e.Insert(c, tx, tbl, make([]byte, 64)); err != nil {
				t.Error(err)
				return
			}
			if parked = wal.tight(); parked {
				if e.logDue() {
					t.Error("the log is due; want it held three quarters first")
				}
				anchors = log.n
			}
			if err := e.Commit(c, tx); err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Run()
	if fatal != nil {
		t.Fatal(fatal)
	}
	if !parked || log.n != anchors+1 || wal.tight() {
		t.Fatalf("parked %v, %d anchors since, log tight %v; want one park, one anchor, room", parked, log.n-anchors, wal.tight())
	}
}

// TestCheckpointerSparesAPinnedLog is TestSerialCommitterSparesAPinnedLog
// with processes: while an open transaction pins the log's head a
// checkpoint frees nothing, so the committers that fill the log park
// without granting the checkpointer, which anchors at most once per half
// of the log written. When the pin ends the checkpointer is granted and
// the parked committers finish.
func TestCheckpointerSparesAPinnedLog(t *testing.T) {
	const logPages = 256
	e, log, tbl := checkpointerEngine(t, NewMemVolume(512, 1024), NewMemVolume(512, logPages))
	ctx := NewIOCtx(nil)
	pin := e.Begin()
	if _, err := e.Insert(ctx, pin, tbl, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	var fatal error
	e.StartCheckpointer(k, 0, func(err error) { fatal = err })
	// Four logs' worth of commits: only possible once the pin is gone.
	const committers, each = 4, logPages
	committed, anchors := 0, log.n
	for range committers {
		k.Go("committer", func(p *sim.Proc) {
			c := NewIOCtx(sim.ProcWaiter{P: p})
			for range each {
				tx := e.Begin()
				if _, err := e.Insert(c, tx, tbl, make([]byte, 64)); err != nil {
					t.Error(err)
					return
				}
				if err := e.Commit(c, tx); err != nil {
					t.Error(err)
					return
				}
				committed++
				p.Sleep(sim.Microsecond)
			}
		})
	}
	k.Run()
	if fatal != nil {
		t.Fatal(fatal)
	}
	if committed == committers*each {
		t.Fatal("every commit went through; want the pinned log to hold the committers")
	}
	if n := log.n - anchors; n > 2 {
		t.Fatalf("%d anchors on a pinned %d-page log; want at most 2", n, logPages)
	}
	k.Go("abort", func(p *sim.Proc) {
		if err := e.Abort(NewIOCtx(sim.ProcWaiter{P: p}), pin); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if fatal != nil {
		t.Fatal(fatal)
	}
	if committed != committers*each {
		t.Fatalf("%d of %d commits after the pin ended", committed, committers*each)
	}
}
