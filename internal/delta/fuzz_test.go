package delta

import (
	"bytes"
	"slices"
	"testing"
)

// The delta codec is the only record of a page change: the buffer pool
// diffs a frame against its base image at flush, and the NoFTL volume
// applies the encoded runs back onto the base on every folded read and
// in Rebuild. The seed corpus lives under testdata/fuzz and runs with
// every `go test`; explore with
//
//	go test ./internal/delta -run '^$' -fuzz FuzzDeltaCodec -fuzztime 60s -fuzzminimizetime 5x

const fuzzGuard = 64

// FuzzDeltaCodec: decoding and applying arbitrary bytes never panics and
// writes nothing outside the page; a diff of two equal-length images,
// encoded and applied onto the base, yields the modified image, and
// EncodedSize predicts the encoding's length.
func FuzzDeltaCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, gap uint8) {
		in := data[:len(data):len(data)] // a read past the input panics
		if runs, payload, err := Decode(in); err == nil && len(payload) != Bytes(runs) {
			t.Fatalf("decoded %d payload bytes for runs totalling %d", len(payload), Bytes(runs))
		}
		size := len(data) % 512
		buf := bytes.Repeat([]byte{0xA5}, size+2*fuzzGuard)
		page := buf[fuzzGuard : fuzzGuard+size : fuzzGuard+size]
		_ = Apply(page, in)
		for i, b := range buf {
			if (i < fuzzGuard || i >= fuzzGuard+size) && b != 0xA5 {
				t.Fatalf("Apply wrote byte %d outside a %d-byte page", i-fuzzGuard, size)
			}
		}

		// The first half is the base image; every odd byte of the second
		// half flips the base byte beside it, so changes are sparse
		// wherever the input is even. Images stay within the u16 offsets
		// the wire format carries.
		half := min(len(data)/2, 16<<10)
		base := data[:half]
		cur := append([]byte(nil), base...)
		for i, m := range data[half : 2*half] {
			if m&1 == 1 {
				cur[i] ^= m
			}
		}
		runs := Diff(nil, base, cur, int(gap))
		enc := Encode(runs, cur)
		if EncodedSize(runs) != len(enc) {
			t.Fatalf("EncodedSize = %d, encoding is %d bytes", EncodedSize(runs), len(enc))
		}
		got := append([]byte(nil), base...)
		if err := Apply(got, enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("Apply(base, Encode(Diff(base, cur))) = %x, want %x", got, cur)
		}
	})
}

// diffBytes is Diff as it was before the word compare: the equal-byte
// skip loop steps one byte at a time.
func diffBytes(base, cur []byte, gap int) []Run {
	var runs []Run
	i := 0
	for i < len(cur) {
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

// FuzzDiffMatchesBytes: Diff, skipping equal bytes a word at a time,
// finds exactly the runs of the byte loop at every gap, length and
// alignment, whether it starts from no buffer or from a used one.
func FuzzDiffMatchesBytes(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x01\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00"), uint8(4), uint8(0))
	f.Add(bytes.Repeat([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 40), uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, gap, skip uint8) {
		// As in FuzzDeltaCodec: the first half is the base, and every odd
		// byte of the second half flips the base byte beside it. skip
		// shifts both images off the word grid.
		half := len(data) / 2
		base := data[:half]
		cur := append([]byte(nil), base...)
		for i, m := range data[half : 2*half] {
			if m&1 == 1 {
				cur[i] ^= m
			}
		}
		s := min(int(skip%8), half)
		base, cur = base[s:], cur[s:]
		want := diffBytes(base, cur, int(gap))
		if got := Diff(nil, base, cur, int(gap)); !slices.Equal(got, want) {
			t.Fatalf("Diff = %v, byte loop %v", got, want)
		}
		used := []Run{{Off: 1, Len: 2}, {Off: 9, Len: 1}}
		if got := Diff(used, base, cur, int(gap)); !slices.Equal(got, want) {
			t.Fatalf("Diff into a used buffer = %v, byte loop %v", got, want)
		}
	})
}
