package delta

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestDiffApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		base := make([]byte, 4096)
		rng.Read(base)
		cur := append([]byte(nil), base...)
		// Random small mutations, the OLTP update pattern.
		for m := 0; m < rng.Intn(8); m++ {
			off := rng.Intn(len(cur))
			n := 1 + rng.Intn(64)
			if off+n > len(cur) {
				n = len(cur) - off
			}
			for i := 0; i < n; i++ {
				cur[off+i] = byte(rng.Int())
			}
		}
		runs := Diff(nil, base, cur, 16)
		enc := Encode(runs, cur)
		got := append([]byte(nil), base...)
		if err := Apply(got, enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: apply(base, diff) != cur", trial)
		}
		// Idempotence: re-applying must not change the result.
		if err := Apply(got, enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: apply is not idempotent", trial)
		}
	}
}

func TestDiffIdentical(t *testing.T) {
	b := make([]byte, 512)
	if runs := Diff(nil, b, append([]byte(nil), b...), 8); len(runs) != 0 {
		t.Fatalf("identical images diff to %v", runs)
	}
}

func TestDiffCoalescesGaps(t *testing.T) {
	base := make([]byte, 256)
	cur := append([]byte(nil), base...)
	cur[10] = 1
	cur[14] = 1 // 3 equal bytes between; gap 8 coalesces
	cur[100] = 1
	runs := Diff(nil, base, cur, 8)
	if len(runs) != 2 {
		t.Fatalf("runs = %v, want 2 coalesced runs", runs)
	}
	if runs[0].Off != 10 || runs[0].Len != 5 {
		t.Fatalf("first run %v, want {10 5}", runs[0])
	}
}

func TestFoldChainOrder(t *testing.T) {
	base := make([]byte, 64)
	v1 := append([]byte(nil), base...)
	v1[5] = 0xAA
	d1 := Encode(Diff(nil, base, v1, 4), v1)
	v2 := append([]byte(nil), v1...)
	v2[5] = 0xBB // overwrites the same byte: order matters
	v2[40] = 0x11
	d2 := Encode(Diff(nil, v1, v2, 4), v2)

	got := append([]byte(nil), base...)
	for _, d := range [][]byte{d1, d2} {
		if err := Apply(got, d); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, v2) {
		t.Fatalf("fold = %x, want %x", got, v2)
	}
}

func TestApplyBounds(t *testing.T) {
	enc := Encode([]Run{{Off: 100, Len: 4}}, make([]byte, 200))
	if err := Apply(make([]byte, 64), enc); err == nil {
		t.Fatal("out-of-bounds run applied without error")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	for _, enc := range [][]byte{nil, {1}, {5, 0, 1, 2}, {1, 0, 0, 0, 8, 0}} {
		if _, _, err := Decode(enc); err == nil {
			t.Fatalf("corrupt encoding %v decoded", enc)
		}
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	src := make([]byte, 128)
	runs := []Run{{0, 8}, {64, 3}}
	if got := len(Encode(runs, src)); got != EncodedSize(runs) {
		t.Fatalf("len(Encode) = %d, EncodedSize = %d", got, EncodedSize(runs))
	}
}
