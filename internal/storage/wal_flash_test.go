package storage

import (
	"bytes"
	"errors"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
)

// newFlashWAL builds a WAL hosted on a real sequential log region over
// an emulated device.
func newFlashWAL(t *testing.T) (*WAL, *FlashLog, *flash.Device) {
	t.Helper()
	dc := flash.EmulatorConfig(2, 8, nand.SLC)
	dc.Nand.StoreData = true
	dev := flash.New(dc)
	l, err := ftl.NewSeqLog(dev, ftl.SeqLogConfig{Dies: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlashLog(l)
	return NewWAL(fl), fl, dev
}

func TestWALFlashRecordsSpanPages(t *testing.T) {
	w, fl, _ := newFlashWAL(t)
	ctx := NewIOCtx(nil)
	big := make([]byte, fl.PageSize()) // larger than one page's payload
	for i := range big {
		big[i] = byte(i)
	}
	var lsns []uint64
	for i := 0; i < 5; i++ {
		lsns = append(lsns, w.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: PageID(i), After: big}))
	}
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}

	// A fresh WAL over the same region must recover every record.
	w2 := NewWAL(fl)
	ckpt, err := w2.ReadAnchor(ctx)
	if err != nil || ckpt != 0 {
		t.Fatalf("anchor %d, %v", ckpt, err)
	}
	recs, end, err := w2.RecoverScan(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != lsns[i] || r.Page != PageID(i) || len(r.After) != len(big) {
			t.Fatalf("record %d: lsn %d page %d len %d", i, r.LSN, r.Page, len(r.After))
		}
		for j, b := range r.After {
			if b != byte(j) {
				t.Fatalf("record %d payload corrupt at %d", i, j)
			}
		}
	}
	if end != w.NextLSN() {
		t.Fatalf("scan end %d, want %d", end, w.NextLSN())
	}
}

func TestWALFlashAnchorTruncates(t *testing.T) {
	w, fl, dev := newFlashWAL(t)
	ctx := NewIOCtx(nil)
	payload := make([]byte, 256)
	// Push several extents' worth of records through repeated
	// flush+anchor cycles; truncation must keep the live window small
	// and actually erase blocks.
	for round := 0; round < 40; round++ {
		for i := 0; i < 20; i++ {
			w.Append(&LogRecord{Type: RecHeapInsert, Tx: 1, Page: PageID(i), After: payload})
		}
		if err := w.Flush(ctx, w.NextLSN()); err != nil {
			t.Fatal(err)
		}
		ckpt := w.Append(&LogRecord{Type: RecCheckpoint, Active: map[uint64]uint64{}, Key: int64(w.NextLSN())})
		if err := w.Flush(ctx, w.NextLSN()); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteAnchor(ctx, ckpt); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Stats().Erases == 0 {
		t.Error("anchoring never truncated the log region")
	}
	head, next := fl.Bounds()
	if next-head > fl.Pages()/2 {
		t.Errorf("live window %d pages of %d; truncation is not keeping up", next-head, fl.Pages())
	}
	if s := fl.L.Stats(); s.GCWrites != 0 || s.GCCopybacks != 0 {
		t.Errorf("log region did copy work: %+v", s)
	}

	// Recovery after all that wrapping still finds the newest anchor.
	w2 := NewWAL(fl)
	ckpt, err := w2.ReadAnchor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt != w.anchor {
		t.Fatalf("recovered anchor %d, want %d", ckpt, w.anchor)
	}
	recs, _, err := w2.RecoverScan(ctx, ckpt)
	if err != nil || len(recs) == 0 {
		t.Fatalf("scan from anchor: %d records, %v", len(recs), err)
	}
	if recs[0].Type != RecCheckpoint {
		t.Fatalf("first recovered record is %d, want checkpoint", recs[0].Type)
	}
}

func TestWALFlashFullWithoutCheckpoint(t *testing.T) {
	w, _, _ := newFlashWAL(t)
	ctx := NewIOCtx(nil)
	payload := make([]byte, 512)
	var flushErr error
	for i := 0; i < 1<<16; i++ {
		w.Append(&LogRecord{Type: RecHeapInsert, Tx: 1, Page: 1, After: payload})
		if flushErr = w.Flush(ctx, w.NextLSN()); flushErr != nil {
			break
		}
	}
	if !errors.Is(flushErr, ErrLogFull) {
		t.Fatalf("log never filled: %v", flushErr)
	}
}

func TestWALFlashAdoptResumesAppend(t *testing.T) {
	w, fl, _ := newFlashWAL(t)
	ctx := NewIOCtx(nil)
	w.Append(&LogRecord{Type: RecBegin, Tx: 1})
	w.Append(&LogRecord{Type: RecCommit, Tx: 1})
	if err := w.Flush(ctx, w.NextLSN()); err != nil {
		t.Fatal(err)
	}

	w2 := NewWAL(fl)
	if _, err := w2.ReadAnchor(ctx); err != nil {
		t.Fatal(err)
	}
	recs, end, err := w2.RecoverScan(ctx, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("scan: %d records, %v", len(recs), err)
	}
	w2.Adopt(end)
	lsn := w2.Append(&LogRecord{Type: RecBegin, Tx: 2})
	if lsn != end {
		t.Fatalf("append after adopt at %d, want %d", lsn, end)
	}
	if err := w2.Flush(ctx, w2.NextLSN()); err != nil {
		t.Fatal(err)
	}

	w3 := NewWAL(fl)
	if _, err := w3.ReadAnchor(ctx); err != nil {
		t.Fatal(err)
	}
	recs3, _, err := w3.RecoverScan(ctx, 0)
	if err != nil || len(recs3) != 3 {
		t.Fatalf("rescan: %d records, %v", len(recs3), err)
	}
}

// TestVolumeLogReopensAfterLaps: a ring reopened after several laps
// rebuilds its window from the pages alone in its first scan —
// deallocated slots below the lowest live position stay out of it —
// passes every live page, and refuses an append that would overwrite
// the live window.
func TestVolumeLogReopensAfterLaps(t *testing.T) {
	const slots, live = 8, 5
	mem := NewMemVolume(64, slots)
	ctx := NewIOCtx(nil)
	page := func(pos int64) []byte { return bytes.Repeat([]byte{byte(pos)}, 56) }
	r := ringOn(mem)
	for i := 0; i < 30; i++ { // 30 positions: almost four laps
		if _, err := r.Append(ctx, page(int64(i))); err != nil {
			t.Fatal(err)
		}
		if _, next := r.Bounds(); next > live {
			if err := r.Truncate(ctx, next-live); err != nil {
				t.Fatal(err)
			}
		}
	}
	r2 := NewVolumeLog(mem)
	check := func(from, to int64) {
		t.Helper()
		want := from
		err := r2.Scan(ctx, func(pos int64, got []byte) error {
			if pos != want || !bytes.Equal(got, page(pos)) {
				t.Fatalf("scan passed position %d (%x), want %d", pos, got[:4], want)
			}
			want++
			return nil
		})
		if err != nil || want != to {
			t.Fatalf("scan ended at %d, %v; want %d", want, err, to)
		}
		if h, n := r2.Bounds(); h != from || n != to {
			t.Fatalf("window [%d,%d), want [%d,%d)", h, n, from, to)
		}
	}
	check(30-live, 30)
	for i := 30; i < 30+slots-live; i++ {
		if pos, err := r2.Append(ctx, page(int64(i))); err != nil || pos != int64(i) {
			t.Fatalf("append %d: position %d, %v", i, pos, err)
		}
	}
	if _, err := r2.Append(ctx, page(99)); !errors.Is(err, ErrLogFull) {
		t.Fatalf("append to a full ring: %v, want ErrLogFull", err)
	}
	check(30-live, 30+slots-live)
}

// keepDead ignores Deallocate, the way noftl.Rebuild brings back the
// pages a log truncated before a restart.
type keepDead struct{ Volume }

func (keepDead) Deallocate(PageID) {}

// TestWALReappliesTruncationAfterRestart: when truncated log pages come
// back after a restart, the reopened ring's window runs a full lap, and
// only re-applying the newest anchor's truncation leaves room to append.
func TestWALReappliesTruncationAfterRestart(t *testing.T) {
	vol := keepDead{NewMemVolume(512, 16)}
	ctx := NewIOCtx(nil)
	w := NewWAL(ringOn(vol))
	for round := 0; round < 40; round++ {
		w.Append(&LogRecord{Type: RecCommit, Tx: uint64(round)})
		ckpt := w.Append(&LogRecord{Type: RecCheckpoint, Active: map[uint64]uint64{}, Key: int64(w.NextLSN())})
		if err := w.Flush(ctx, w.NextLSN()); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteAnchor(ctx, ckpt); err != nil {
			t.Fatal(err)
		}
	}
	head, next := w.log.Bounds()
	w2 := NewWAL(ringOn(vol))
	if h, n := w2.log.Bounds(); n != next || n-h != 16 {
		t.Fatalf("reopened ring [%d,%d); want the stale pages back, a full lap ending at %d", h, n, next)
	}
	ckpt, err := w2.ReadAnchor(ctx)
	if err != nil || ckpt != w.anchor {
		t.Fatalf("anchor %d, %v; want %d", ckpt, err, w.anchor)
	}
	if h, n := w2.log.Bounds(); h != head || n != next {
		t.Fatalf("window after reading the anchor [%d,%d), want [%d,%d)", h, n, head, next)
	}
	recs, end, err := w2.RecoverScan(ctx, ckpt)
	if err != nil || len(recs) != 1 || recs[0].Type != RecCheckpoint {
		t.Fatalf("scan from the anchor: %d records, %v", len(recs), err)
	}
	w2.Adopt(end)
	w2.Append(&LogRecord{Type: RecCommit, Tx: 99})
	if err := w2.Flush(ctx, w2.NextLSN()); err != nil {
		t.Fatalf("flush after restart: %v", err)
	}
}

// TestWALRecoversAcrossAHoleInTheRing: appends can land out of order — a
// checkpoint's anchor still in flight while the next flush's page is
// already written. A crash then leaves a hole below the ring's newest
// page; the reopened window spans it, and recovery falls back to the
// previous anchor and replays every record, the ones above the hole
// included.
func TestWALRecoversAcrossAHoleInTheRing(t *testing.T) {
	const slots = 16
	vol := NewMemVolume(512, slots)
	ctx := NewIOCtx(nil)
	w := NewWAL(ringOn(vol))
	checkpoint := func() uint64 {
		lsn := w.Append(&LogRecord{Type: RecCheckpoint, Active: map[uint64]uint64{}, Key: int64(w.NextLSN())})
		if err := w.Flush(ctx, w.NextLSN()); err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	commit := func(tx uint64) {
		w.Append(&LogRecord{Type: RecCommit, Tx: tx})
		if err := w.Flush(ctx, w.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt uint64
	for round := uint64(0); round < 10; round++ { // three pages a round: two laps
		commit(round)
		ckpt = checkpoint()
		if err := w.WriteAnchor(ctx, ckpt); err != nil {
			t.Fatal(err)
		}
	}
	commit(100)
	ckpt2 := checkpoint()
	// The crash image: every slot as it was before the second anchor was
	// written, plus the page a later flush wrote behind it.
	crashed := NewMemVolume(512, slots)
	page := make([]byte, 512)
	for slot := PageID(0); slot < slots; slot++ {
		_ = vol.ReadPage(ctx, slot, page)
		_ = crashed.WritePage(ctx, slot, page, HintLog)
	}
	if err := w.WriteAnchor(ctx, ckpt2); err != nil {
		t.Fatal(err)
	}
	commit(101)
	_, next := w.log.Bounds()
	_ = vol.ReadPage(ctx, PageID((next-1)%slots), page)
	_ = crashed.WritePage(ctx, PageID((next-1)%slots), page, HintLog)

	w2 := NewWAL(ringOn(crashed))
	if _, n := w2.log.Bounds(); n != next {
		t.Fatalf("reopened ring ends at %d, want %d", n, next)
	}
	got, err := w2.ReadAnchor(ctx)
	if err != nil || got != ckpt {
		t.Fatalf("anchor %d, %v; want the previous checkpoint %d", got, err, ckpt)
	}
	recs, end, err := w2.RecoverScan(ctx, got)
	if err != nil {
		t.Fatal(err)
	}
	var txs []uint64
	for _, r := range recs {
		if r.Type == RecCommit {
			txs = append(txs, r.Tx)
		}
	}
	if len(txs) != 2 || txs[0] != 100 || txs[1] != 101 || end != w.NextLSN() {
		t.Fatalf("replayed commits %v up to lsn %d; want [100 101] up to %d", txs, end, w.NextLSN())
	}
	w2.Adopt(end)
	w2.Append(&LogRecord{Type: RecCommit, Tx: 102})
	if err := w2.Flush(ctx, w2.NextLSN()); err != nil {
		t.Fatalf("flush after restart: %v", err)
	}
}
