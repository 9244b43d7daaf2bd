package storage

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"noftl/internal/sim"
)

func newTestWAL() (*WAL, *IOCtx) {
	return NewWAL(ringOn(NewMemVolume(512, 256))), NewIOCtx(nil)
}

// ScanFrom reads the durable stream starting at lsn and decodes records
// until the stream ends (torn/stale page or truncated record).
func (w *WAL) ScanFrom(ctx *IOCtx, lsn uint64) ([]*LogRecord, error) {
	recs, _, err := w.RecoverScan(ctx, lsn)
	return recs, err
}

func TestWALAppendFlushScan(t *testing.T) {
	w, ctx := newTestWAL()
	recs := []*LogRecord{
		{Type: RecBegin, Tx: 1},
		{Type: RecHeapInsert, Tx: 1, Page: 5, Slot: 2, After: []byte("record-one")},
		{Type: RecHeapUpdate, Tx: 1, Page: 5, Slot: 2, Before: []byte("record-one"), After: []byte("record-two")},
		{Type: RecCommit, Tx: 1},
	}
	for _, r := range recs {
		w.Append(r)
	}
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	got, err := w.ScanFrom(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Type != recs[i].Type || got[i].Tx != recs[i].Tx ||
			!bytes.Equal(got[i].After, recs[i].After) || !bytes.Equal(got[i].Before, recs[i].Before) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestWALRecordsSpanPages(t *testing.T) {
	w, ctx := newTestWAL()
	// Payload per page is 500 bytes; a 400-byte image twice spans pages.
	for i := 0; i < 4; i++ {
		w.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: PageID(i),
			After: bytes.Repeat([]byte{byte(i + 1)}, 400)})
	}
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	got, err := w.ScanFrom(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("scanned %d, want 4", len(got))
	}
	for i, r := range got {
		if len(r.After) != 400 || r.After[0] != byte(i+1) {
			t.Errorf("record %d image corrupted", i)
		}
	}
}

func TestWALPartialFlushThenMore(t *testing.T) {
	w, ctx := newTestWAL()
	l1 := w.Append(&LogRecord{Type: RecBegin, Tx: 1})
	if err := w.Flush(ctx, l1+1); err != nil {
		t.Fatal(err)
	}
	w.Append(&LogRecord{Type: RecHeapInsert, Tx: 1, Page: 1, Slot: 0, After: []byte("x")})
	l3 := w.Append(&LogRecord{Type: RecCommit, Tx: 1})
	if err := w.Flush(ctx, l3+1); err != nil {
		t.Fatal(err)
	}
	got, _ := w.ScanFrom(ctx, 0)
	if len(got) != 3 {
		t.Fatalf("scanned %d, want 3", len(got))
	}
}

func TestWALScanStopsAtUnflushed(t *testing.T) {
	w, ctx := newTestWAL()
	w.Append(&LogRecord{Type: RecBegin, Tx: 1})
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	w.Append(&LogRecord{Type: RecCommit, Tx: 1}) // never flushed
	got, _ := w.ScanFrom(ctx, 0)
	if len(got) != 1 {
		t.Fatalf("scanned %d, want 1 (unflushed tail must not appear)", len(got))
	}
}

func TestWALCheckpointRecord(t *testing.T) {
	w, ctx := newTestWAL()
	active := map[uint64]uint64{3: 100, 7: 50}
	w.Append(&LogRecord{Type: RecCheckpoint, Active: active})
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	got, _ := w.ScanFrom(ctx, 0)
	if len(got) != 1 || !reflect.DeepEqual(got[0].Active, active) {
		t.Fatalf("checkpoint round trip: %+v", got)
	}
}

func TestWALAnchor(t *testing.T) {
	w, ctx := newTestWAL()
	if lsn, err := w.ReadAnchor(ctx); err != nil || lsn != 0 {
		t.Fatalf("fresh anchor = %d, %v", lsn, err)
	}
	if err := w.WriteAnchor(ctx, 1234); err != nil {
		t.Fatal(err)
	}
	lsn, err := w.ReadAnchor(ctx)
	if err != nil || lsn != 1234 {
		t.Fatalf("anchor = %d, %v", lsn, err)
	}
}

func TestWALAdoptResumesAppend(t *testing.T) {
	vol := NewMemVolume(512, 256)
	w, ctx := NewWAL(ringOn(vol)), NewIOCtx(nil)
	w.Append(&LogRecord{Type: RecBegin, Tx: 1})
	w.Append(&LogRecord{Type: RecCommit, Tx: 1})
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	// Second WAL instance (restart) adopts the stream and appends more.
	w2 := NewWAL(ringOn(vol))
	recs, end, err := w2.RecoverScan(ctx, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("recover scan: %d recs, %v", len(recs), err)
	}
	w2.Adopt(end)
	w2.Append(&LogRecord{Type: RecBegin, Tx: 2})
	w2.Append(&LogRecord{Type: RecCommit, Tx: 2})
	if err := w2.Flush(ctx, w2.NextLSN()); err != nil {
		t.Fatal(err)
	}
	all, _ := w2.ScanFrom(ctx, 0)
	if len(all) != 4 {
		t.Fatalf("after adopt: %d records, want 4", len(all))
	}
	if all[2].Tx != 2 || all[3].Tx != 2 {
		t.Error("adopted records corrupted")
	}
}

func TestWALIdxRecordRoundTrip(t *testing.T) {
	w, ctx := newTestWAL()
	w.Append(&LogRecord{Type: RecIdxInsert, Tx: 4, Idx: 9, Page: 77, Key: -12345,
		RID: RID{Page: 6, Slot: 11}})
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	got, _ := w.ScanFrom(ctx, 0)
	r := got[0]
	if r.Idx != 9 || r.Page != 77 || r.Key != -12345 || r.RID != (RID{Page: 6, Slot: 11}) {
		t.Errorf("idx record: %+v", r)
	}
}

// TestWALWrapAroundWithCheckpoints drives the log far past its volume
// capacity; checkpoints let it wrap, and recovery after the wraps still
// finds a consistent state.
func TestWALWrapAroundWithCheckpoints(t *testing.T) {
	data := NewMemVolume(512, 4096)
	logv := NewMemVolume(512, 32) // tiny log: every few txs wrap it
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable(ctx, "t")
	idx, _ := e.CreateIndex(ctx, "pk")
	// Every flush takes a page of its own and each commit flushes, so
	// 600 txs wrap the 32-page ring many times; between the explicit
	// checkpoints the serial committer anchors the log itself.
	for i := 0; i < 600; i++ {
		tx := e.Begin()
		rid, err := e.Insert(ctx, tx, tbl, []byte{byte(i), byte(i >> 8), 3, 4, 5, 6, 7, 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.IdxInsert(ctx, tx, idx, int64(i), rid); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			if err := e.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash and recover across the wrapped log.
	e2, ctx2 := crashAndReopen(t, data, logv, 32)
	idx2, err := e2.OpenTable("pk")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		rid, found, err := e2.IdxLookup(ctx2, nil, idx2, int64(i))
		if err != nil || !found {
			t.Fatalf("key %d lost after log wrap (%v)", i, err)
		}
		tx := e2.Begin()
		rec, err := e2.Fetch(ctx2, tx, rid)
		if err != nil || rec[0] != byte(i) {
			t.Fatalf("row %d wrong after wrap: %v %v", i, rec, err)
		}
		_ = e2.Commit(ctx2, tx)
	}
}

func TestWALRefusesToOverwriteCheckpoint(t *testing.T) {
	logv := NewMemVolume(512, 9) // 9 ring pages of 484B payload
	w := NewWAL(ringOn(logv))
	ctx := NewIOCtx(nil)
	if err := w.WriteAnchor(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// Without a newer checkpoint the log must refuse to wrap over the
	// anchored position.
	var err error
	for i := 0; i < 200 && err == nil; i++ {
		w.Append(&LogRecord{Type: RecHeapInsert, Tx: 1, Page: 1, Slot: 0,
			After: make([]byte, 64)})
		err = w.Flush(ctx, w.NextLSN())
	}
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
	// After a fresh checkpoint anchor, appending resumes.
	if err := w.WriteAnchor(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}
	w.Append(&LogRecord{Type: RecCommit, Tx: 1})
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatalf("flush after re-anchor: %v", err)
	}
}

// TestFlushBgCallSites: WAL.flushBg keeps a background caller's class
// instead of escalating to the WAL class, so a call on the commit path
// would queue other transactions' commit records at background priority.
// Being unexported keeps it out of every other package; inside this one,
// only the buffer pool's write-back (WAL-before-data) and the
// checkpointer may call it.
func TestFlushBgCallSites(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var sites []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			site := fd.Name.Name
			if fd.Recv != nil {
				if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
					site = "(*" + star.X.(*ast.Ident).Name + ")." + site
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "flushBg" {
					sites = append(sites, site)
				}
				return true
			})
		}
	}
	slices.Sort(sites)
	if want := []string{"(*BufferPool).writeFrame", "(*Engine).Checkpoint"}; !slices.Equal(sites, want) {
		t.Fatalf("flushBg call sites = %q, want exactly %q", sites, want)
	}
}

// TestCommitWaitsForTheAnchor: once three quarters of the log are held
// (every page back to the recovery horizon), a committer parks instead
// of filling the log with live records, and the checkpoint's anchor
// releases it at that instant.
func TestCommitWaitsForTheAnchor(t *testing.T) {
	data, logv := NewMemVolume(512, 256), NewMemVolume(512, 16)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable(ctx, "t")
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	wal := e.Log()
	k := sim.New()
	var parkedAt, resumedAt sim.Time
	k.Go("committer", func(p *sim.Proc) {
		c := NewIOCtx(sim.ProcWaiter{P: p})
		for parkedAt == 0 {
			tx := e.Begin()
			if _, err := e.Insert(c, tx, tbl, make([]byte, 64)); err != nil {
				t.Error(err)
				return
			}
			if head, next := wal.log.Bounds(); (next-head)*4 >= wal.log.Pages()*3 {
				parkedAt = p.Now()
			}
			if err := e.Commit(c, tx); err != nil {
				t.Error(err)
				return
			}
			resumedAt = p.Now()
			p.Sleep(sim.Microsecond)
		}
	})
	const anchorAt = sim.Second
	k.Go("checkpointer", func(p *sim.Proc) {
		p.Sleep(anchorAt)
		if err := e.Checkpoint(NewIOCtx(sim.ProcWaiter{P: p})); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if parkedAt == 0 || parkedAt >= anchorAt || resumedAt != anchorAt {
		t.Fatalf("commit began at %v and returned at %v; want it held from before %v to exactly then", parkedAt, resumedAt, anchorAt)
	}
}

// TestSerialCommitterAnchorsTheLog: a committer without a process cannot
// park for a checkpointer. It checkpoints itself once half the log is
// written since the last anchor, so after every commit the log holds at
// most half its capacity plus that commit's own pages, and a serial run
// that commits far more flushes than the log has pages never fills it.
func TestSerialCommitterAnchorsTheLog(t *testing.T) {
	data, logv := NewMemVolume(512, 256), NewMemVolume(512, 64)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable(ctx, "t")
	wal := e.Log()
	for i := 0; i < 400; i++ {
		tx := e.Begin()
		if _, err := e.Insert(ctx, tx, tbl, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		out := wal.PagesOut
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		own := uint64(wal.PagesOut-out) * uint64(wal.payload)
		if since := wal.SinceAnchor(); since > wal.Capacity()/2+own {
			t.Fatalf("commit %d: %d log bytes since the anchor; want at most half of %d plus the commit's own %d",
				i, since, wal.Capacity(), own)
		}
	}
	if out := wal.PagesOut; out <= 64 {
		t.Fatalf("%d log pages written; the run never lapped the 64-page log", out)
	}
}

// TestSerialCommitterSparesAPinnedLog: while an open transaction pins
// the recovery horizon a checkpoint frees nothing, so a serial committer
// anchors the log at most once per half of the log written, not at every
// commit.
func TestSerialCommitterSparesAPinnedLog(t *testing.T) {
	const logPages = 256
	data, logv := NewMemVolume(512, 256), NewMemVolume(512, logPages)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable(ctx, "t")
	pin := e.Begin()
	if _, err := e.Insert(ctx, pin, tbl, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	anchors, last := 0, e.wal.anchorPos
	for i := 0; ; i++ {
		tx := e.Begin()
		if _, err := e.Insert(ctx, tx, tbl, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		err := e.Commit(ctx, tx)
		if e.wal.anchorPos != last {
			anchors, last = anchors+1, e.wal.anchorPos
		}
		if errors.Is(err, ErrLogFull) {
			break
		}
		if err != nil || i > 4*logPages {
			t.Fatalf("commit %d: %v; want the pinned log to fill", i, err)
		}
	}
	// One anchor once half the pinned log is written, before the other
	// half fills it: two at most.
	if anchors > 2 {
		t.Fatalf("%d anchors on a pinned %d-page log; want at most 2", anchors, logPages)
	}
}
