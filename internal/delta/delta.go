// Package delta implements page-differential encoding for the NoFTL
// in-place-append (IPA) write path. OLTP updates dirty a few dozen bytes
// of a page, yet a conventional flush programs a full flash page; the
// paper's research line (and Page-Differential Logging, Kim/Whang/Song)
// shows that writing only the changed byte runs cuts flash write volume
// dramatically, while uFLIP shows small sequential appends are exactly
// the pattern native flash executes well.
//
// The package provides two pieces:
//
//   - Run / Diff: the byte-range representation of a page differential
//     and an exact differ between a base image and a modified image —
//     the buffer pool diffs a frame against its base image at flush
//     time, and that diff is the only record of what changed;
//   - Encode / Decode / Apply: a compact binary wire format for a
//     differential, and its application onto a page image (a delta
//     chain folds by applying each record, oldest first).
//
// Deltas are absolute: each run overwrites [Off, Off+Len) with recorded
// bytes. That makes application idempotent — replaying a chain onto a
// page that already contains a suffix of it is harmless — which is what
// lets the NoFTL volume fold chains lazily (on read, on threshold, or
// during GC) without coordination.
package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by decoding and application.
var (
	ErrCorrupt = errors.New("delta: corrupt or truncated encoding")
	ErrBounds  = errors.New("delta: run exceeds page bounds")
)

// Run is one modified byte range of a page.
type Run struct {
	Off int // byte offset within the page
	Len int // number of bytes
}

// End returns the exclusive end offset of the run.
func (r Run) End() int { return r.Off + r.Len }

// Diff computes the exact modified runs between two equal-length page
// images, coalescing runs separated by fewer than gap equal bytes (a
// small gap is cheaper to retransmit than a fresh run header). It stores
// them in buf's memory when they fit. base and cur must be the same
// length; Diff panics otherwise (caller bug).
func Diff(buf []Run, base, cur []byte, gap int) []Run {
	if len(base) != len(cur) {
		panic(fmt.Sprintf("delta: diff of mismatched images (%d vs %d bytes)", len(base), len(cur)))
	}
	runs := buf[:0]
	i := 0
	for i < len(cur) {
		if i+8 <= len(cur) && binary.LittleEndian.Uint64(base[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
			i += 8
			continue
		}
		if base[i] == cur[i] {
			i++
			continue
		}
		start := i
		for i < len(cur) && base[i] != cur[i] {
			i++
		}
		if n := len(runs); n > 0 && start-runs[n-1].End() < gap {
			runs[n-1].Len = i - runs[n-1].Off
		} else {
			runs = append(runs, Run{Off: start, Len: i - start})
		}
	}
	return runs
}

// Bytes sums the payload bytes of a run set.
func Bytes(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += r.Len
	}
	return n
}

// --- wire format ---

// Encoding: u16 runCount, then runCount × {u16 off, u16 len}, then the
// concatenated run bytes in order. Offsets are u16, so pages up to 64 KiB
// are supported (NAND pages are 4–16 KiB).
const (
	encHeader = 2
	encPerRun = 4
)

// EncodedSize returns the wire size of a differential with these runs.
func EncodedSize(runs []Run) int { return encHeader + len(runs)*encPerRun + Bytes(runs) }

// Encode serializes the differential taking run bytes from src (the
// modified page image).
func Encode(runs []Run, src []byte) []byte {
	out := make([]byte, 0, EncodedSize(runs))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(runs)))
	for _, r := range runs {
		out = binary.LittleEndian.AppendUint16(out, uint16(r.Off))
		out = binary.LittleEndian.AppendUint16(out, uint16(r.Len))
	}
	for _, r := range runs {
		out = append(out, src[r.Off:r.End()]...)
	}
	return out
}

// Decode parses an encoded differential, returning its runs and the
// concatenated payload bytes (aliasing enc).
func Decode(enc []byte) ([]Run, []byte, error) {
	if len(enc) < encHeader {
		return nil, nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint16(enc))
	if len(enc) < encHeader+n*encPerRun {
		return nil, nil, ErrCorrupt
	}
	runs := make([]Run, n)
	total := 0
	for i := 0; i < n; i++ {
		pos := encHeader + i*encPerRun
		runs[i] = Run{
			Off: int(binary.LittleEndian.Uint16(enc[pos:])),
			Len: int(binary.LittleEndian.Uint16(enc[pos+2:])),
		}
		total += runs[i].Len
	}
	payload := enc[encHeader+n*encPerRun:]
	if len(payload) < total {
		return nil, nil, ErrCorrupt
	}
	return runs, payload[:total], nil
}

// Apply overwrites page with the differential's runs. Application is
// idempotent (runs carry absolute offsets and bytes).
func Apply(page, enc []byte) error {
	runs, payload, err := Decode(enc)
	if err != nil {
		return err
	}
	pos := 0
	for _, r := range runs {
		if r.Off < 0 || r.Len < 0 || r.End() > len(page) {
			return fmt.Errorf("%w: run [%d,%d) on %d-byte page", ErrBounds, r.Off, r.End(), len(page))
		}
		copy(page[r.Off:r.End()], payload[pos:pos+r.Len])
		pos += r.Len
	}
	return nil
}
