package delta

import (
	"bytes"
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
		runs := Diff(base, cur, int(gap))
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
