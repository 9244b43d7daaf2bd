package storage

import (
	"testing"
)

// Allocation microbenchmarks for the two hottest encode paths: the
// slotted-page codec and WAL record encoding. Run with
//
//	go test ./internal/storage/ -bench 'Alloc$' -benchmem
//
// and track allocs/op: the page codec is a zero-allocation in-place
// view (any regression here multiplies across every heap access), and
// the WAL codec encodes into the caller's buffer / decodes by aliasing
// the stream — TestWALCodecZeroAlloc pins all three paths at exactly
// zero allocations per record.

func benchRecord() []byte {
	rec := make([]byte, 96)
	for i := range rec {
		rec[i] = byte(i)
	}
	return rec
}

func BenchmarkPageInsertAlloc(b *testing.B) {
	buf := make([]byte, 4096)
	rec := benchRecord()
	p := InitPage(buf, 7, PageHeap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Insert(rec); err != nil {
			// Page full: reformat in place and continue; the reset is
			// part of the measured loop but amortizes over ~40 inserts.
			p = InitPage(buf, 7, PageHeap)
		}
	}
}

func BenchmarkPageReadAlloc(b *testing.B) {
	buf := make([]byte, 4096)
	rec := benchRecord()
	p := InitPage(buf, 7, PageHeap)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			break
		}
		n++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Record(i % n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageUpdateAlloc(b *testing.B) {
	buf := make([]byte, 4096)
	rec := benchRecord()
	p := InitPage(buf, 7, PageHeap)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			break
		}
		n++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Update(i%n, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALEncodeAlloc(b *testing.B) {
	rec := benchRecord()
	r := &LogRecord{
		Type:   RecHeapUpdate,
		Tx:     42,
		Page:   1337,
		Slot:   5,
		Before: rec,
		After:  rec,
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LSN = uint64(i)
		buf = encodeRecordTo(buf[:0], r)
		if len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkWALDecodeAlloc(b *testing.B) {
	rec := benchRecord()
	enc := encodeRecord(&LogRecord{
		Type:   RecHeapUpdate,
		Tx:     42,
		LSN:    9,
		Page:   1337,
		Slot:   5,
		Before: rec,
		After:  rec,
	})
	var r LogRecord
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decodeRecordInto(&r, enc, 9) == 0 {
			b.Fatal("decode failed")
		}
	}
}

// TestWALCodecZeroAlloc pins the WAL record hot paths — encode-into,
// decode-into and Append — at exactly zero allocations per record once
// the destination buffer has grown to capacity.
func TestWALCodecZeroAlloc(t *testing.T) {
	rec := benchRecord()
	r := &LogRecord{Type: RecHeapUpdate, Tx: 42, Page: 1337, Slot: 5,
		Before: rec, After: rec}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() {
		buf = encodeRecordTo(buf[:0], r)
	}); n != 0 {
		t.Errorf("encodeRecordTo: %v allocs/op, want 0", n)
	}

	enc := encodeRecord(&LogRecord{Type: RecHeapUpdate, Tx: 42, LSN: 9,
		Page: 1337, Slot: 5, Before: rec, After: rec})
	var dst LogRecord
	if n := testing.AllocsPerRun(100, func() {
		if decodeRecordInto(&dst, enc, 9) == 0 {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Errorf("decodeRecordInto: %v allocs/op, want 0", n)
	}

	w := NewWAL(ringOn(NewMemVolume(4096, 1<<12)))
	w.tail = make([]byte, 0, 1<<16)
	if n := testing.AllocsPerRun(100, func() {
		w.Append(r)
		// Trim inside the run so the tail never outgrows its
		// preallocated capacity — growth would be a legitimate
		// amortized allocation, not a per-record one.
		w.tail = w.tail[:0]
	}); n != 0 {
		t.Errorf("WAL.Append: %v allocs/op, want 0", n)
	}
}

func BenchmarkWALAppendAlloc(b *testing.B) {
	w := NewWAL(ringOn(NewMemVolume(4096, 1<<12)))
	rec := benchRecord()
	r := &LogRecord{Type: RecHeapUpdate, Tx: 42, Page: 1337, Slot: 5,
		Before: rec, After: rec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(r)
		if len(w.tail) > 1<<20 {
			// Drop the buffered stream so the benchmark measures the
			// encode+buffer path, not an unbounded tail copy.
			w.tail = w.tail[:0]
		}
	}
}

// encodeRecord encodes r into a fresh slice.
func encodeRecord(r *LogRecord) []byte { return encodeRecordTo(nil, r) }
