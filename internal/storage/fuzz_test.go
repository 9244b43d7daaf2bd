package storage

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz targets for the two codecs whose records the engine hands out
// without a defensive copy: the slotted page (Scan, ViewDirty) and the
// WAL record (recovery aliases the recovered stream). The seed corpora
// live under testdata/fuzz and run with every `go test`; explore with
//
//	go test ./internal/storage -run '^$' -fuzz FuzzPageCodec -fuzztime 60s

const fuzzPageSize = 4096

// pageOps applies the op stream in data to p: each op is three bytes,
// {kind, slot, record length}. Every record written is distinct (it is
// filled with the op's sequence number). With a model it checks that
// Record returns exactly the bytes last written to each live slot.
func pageOps(t *testing.T, p Page, data []byte, model map[int][]byte) {
	for seq := 0; len(data) >= 3; seq, data = seq+1, data[3:] {
		kind, arg := data[0]%5, int(data[1])
		rec := bytes.Repeat([]byte{byte(seq)}, int(data[2]))
		slot := arg % (p.NumSlots() + 4)
		switch kind {
		case 0:
			if s, err := p.Insert(rec); err == nil && model != nil {
				model[s] = rec
			}
		case 1:
			if err := p.Update(slot, rec); err == nil && model != nil {
				model[slot] = rec
			}
		case 2:
			if err := p.Delete(slot); err == nil && model != nil {
				delete(model, slot)
			}
		case 3:
			if err := p.InsertAt(slot, rec); err == nil && model != nil {
				model[slot] = rec
			}
		case 4:
			got, err := p.Record(slot)
			if want, live := model[slot]; model != nil && (live != (err == nil) || !bytes.Equal(got, want)) {
				t.Fatalf("op %d: Record(%d) = %q, %v; want %q (live %v)", seq, slot, got, err, want, live)
			}
		}
	}
	if model == nil {
		for i := 0; i < p.NumSlots(); i++ {
			_, _ = p.Record(i)
		}
		return
	}
	for s, want := range model {
		if got, err := p.Record(s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("slot %d = %q, %v; want %q", s, got, err, want)
		}
	}
	if n := liveRecords(p); n != len(model) {
		t.Fatalf("%d live records, model has %d", n, len(model))
	}
}

// FuzzPageCodec: an op sequence over a fresh page never panics and
// keeps every live record intact; the same sequence over an arbitrary
// 4 KiB image, and over the result with its header and slot directory
// overwritten by the input, never panics.
func FuzzPageCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := InitPage(make([]byte, fuzzPageSize), 1, PageHeap)
		pageOps(t, p, data, map[int][]byte{})

		raw := make([]byte, fuzzPageSize)
		copy(raw, data)
		pageOps(t, Page{B: raw}, data, nil)

		copy(p.B[16:pageHeaderSize], data)
		for i := 0; i < len(data) && i < 256; i++ {
			p.B[len(p.B)-1-i] ^= data[i]
		}
		pageOps(t, p, data, nil)
	})
}

// walRecordFrom builds a log record of every type from fuzz input.
func walRecordFrom(data []byte) *LogRecord {
	var hdr [48]byte
	n := copy(hdr[:], data)
	body := data[n:min(len(data), n+0xFFFF)] // heap images carry a u16 length
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[i:]) }
	r := &LogRecord{Type: RecType(hdr[0]%10 + 1), LSN: u64(1), Tx: u64(9)}
	half := len(body) / 2
	switch r.Type {
	case RecHeapInsert, RecHeapUpdate, RecHeapDelete:
		r.Page, r.Slot = PageID(u64(17)), int(binary.LittleEndian.Uint16(hdr[25:]))
		if r.Type != RecHeapDelete {
			r.After = body[half:]
		}
		if r.Type != RecHeapInsert {
			r.Before = body[:half]
		}
	case RecPageImage:
		r.Page, r.After = PageID(u64(17)), body
	case RecIdxInsert, RecIdxDelete:
		r.Idx, r.Page, r.Key = binary.LittleEndian.Uint32(hdr[25:]), PageID(u64(17)), int64(u64(29))
		r.RID = RID{Page: PageID(u64(37)), Slot: binary.LittleEndian.Uint16(hdr[45:])}
	case RecCheckpoint:
		r.Key = int64(u64(17))
		r.Active = map[uint64]uint64{}
		for ; len(body) >= 16; body = body[16:] {
			r.Active[binary.LittleEndian.Uint64(body)] = binary.LittleEndian.Uint64(body[8:])
		}
	}
	return r
}

func sameRecord(a, b *LogRecord) bool {
	if a.Type != b.Type || a.LSN != b.LSN || a.Tx != b.Tx || a.Page != b.Page || a.Slot != b.Slot ||
		a.Idx != b.Idx || a.Key != b.Key || a.RID != b.RID ||
		!bytes.Equal(a.Before, b.Before) || !bytes.Equal(a.After, b.After) || len(a.Active) != len(b.Active) {
		return false
	}
	for tx, first := range a.Active {
		if got, ok := b.Active[tx]; !ok || got != first {
			return false
		}
	}
	return true
}

// FuzzWALRecord: decoding arbitrary bytes never panics or reads past
// them, and every record encodes and decodes back to itself.
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := data[:len(data):len(data)] // a read past the input panics
		var r LogRecord
		lsn := uint64(0)
		if len(in) >= 13 {
			lsn = binary.LittleEndian.Uint64(in[5:]) // the LSN the bytes claim
		}
		if n := decodeRecordInto(&r, in, lsn); n > uint64(len(in)) {
			t.Fatalf("decoded %d bytes of a %d-byte input", n, len(in))
		}

		want := walRecordFrom(data)
		enc := encodeRecordTo(nil, want)
		var got LogRecord
		if n := decodeRecordInto(&got, enc, want.LSN); n != uint64(len(enc)) {
			t.Fatalf("%v record: decoded %d of %d bytes", want.Type, n, len(enc))
		}
		if !sameRecord(want, &got) {
			t.Fatalf("round trip changed the record:\n in  %+v\n out %+v", want, got)
		}
		if n := decodeRecordInto(&got, enc[:len(enc)-1], want.LSN); n != 0 {
			t.Fatalf("%v record: a truncated encoding decoded to %d bytes", want.Type, n)
		}
		if n := decodeRecordInto(&got, enc, want.LSN+1); n != 0 {
			t.Fatalf("%v record: decoded under a foreign LSN", want.Type)
		}
	})
}

// TestWALDecodeRejectsShortBodies: a record whose length field covers
// its header but not the fields its type declares is rejected, not read
// past.
func TestWALDecodeRejectsShortBodies(t *testing.T) {
	for typ := RecHeapInsert; typ <= RecIdxDelete; typ++ {
		b := make([]byte, 21)
		binary.LittleEndian.PutUint32(b, 21)
		b[4] = byte(typ)
		var r LogRecord
		if n := decodeRecordInto(&r, b, 0); n != 0 {
			t.Errorf("%d: a bodiless record decoded to %d bytes", typ, n)
		}
	}
	var r LogRecord
	cp := encodeRecordTo(nil, &LogRecord{Type: RecCheckpoint})
	binary.LittleEndian.PutUint32(cp[len(cp)-4:], 1<<30) // a billion active transactions
	if n := decodeRecordInto(&r, cp, 0); n != 0 || r.Active != nil {
		t.Errorf("an oversized checkpoint count decoded: n=%d", n)
	}
}
