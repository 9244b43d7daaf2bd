package nand

import (
	"bytes"
	"math/rand"
	"testing"
)

// fillBlock programs every page of block b with a page of fill bytes.
func fillBlock(t testing.TB, a *Array, b PBN, fill byte) {
	t.Helper()
	data := bytes.Repeat([]byte{fill}, a.geo.PageSize)
	first := a.geo.FirstPage(b)
	for i := 0; i < a.geo.PagesPerBlock; i++ {
		if err := a.ProgramPage(first+PPN(i), data, OOB{LPN: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// Once one block's worth of buffers has been erased, program/erase cycles
// run on recycled buffers alone.
func TestProgramAfterEraseAllocatesNothing(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	const b = PBN(3)
	fillBlock(t, a, b, 1)
	if err := a.EraseBlock(b); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, a.geo.PageSize)
	first := a.geo.FirstPage(b)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < a.geo.PagesPerBlock; i++ {
			var err error
			if i%2 == 0 {
				err = a.ProgramPage(first+PPN(i), data, OOB{})
			} else {
				err = a.ProgramPartial(first+PPN(i), 0, data[:100], OOB{})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := a.EraseBlock(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("program x%d + erase: %v allocs per cycle, want 0", a.geo.PagesPerBlock, allocs)
	}
}

// A recycled buffer still holds its previous page; none of it may show
// through the three ways a page can come to hold fewer than PageSize
// programmed bytes.
func TestRecycledPageReadsBackClean(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	const b = PBN(0)
	fillBlock(t, a, b, 0xAA)
	if err := a.EraseBlock(b); err != nil {
		t.Fatal(err)
	}
	if len(a.freePages) != a.geo.PagesPerBlock {
		t.Fatalf("free list holds %d buffers after the erase, want %d", len(a.freePages), a.geo.PagesPerBlock)
	}
	first := a.geo.FirstPage(b)
	buf := make([]byte, a.geo.PageSize)
	zeros := make([]byte, a.geo.PageSize)

	// (a) a first partial program leaves the rest of the page zero.
	head := bytes.Repeat([]byte{0x5C}, 100)
	if err := a.ProgramPartial(first, 0, head, OOB{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadPage(first, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:100], head) || !bytes.Equal(buf[100:], zeros[100:]) {
		t.Errorf("partial program on a recycled buffer: bytes past 100 are not zero")
	}

	// (b) a data-less program takes no buffer and reads all-zero.
	free := len(a.freePages)
	if err := a.ProgramPage(first+1, nil, OOB{LPN: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadPage(first+1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, zeros) || len(a.freePages) != free {
		t.Errorf("nil-data program: read back non-zero or took a buffer (free %d -> %d)", free, len(a.freePages))
	}

	// (c) copyback of that data-less page stays data-less.
	if err := a.Copyback(first+1, first+2, OOB{}, true); err != nil {
		t.Fatal(err)
	}
	if d := a.block(b).data[2]; d != nil || len(a.freePages) != free {
		t.Errorf("copyback of a nil-data page stored a buffer (free %d -> %d)", free, len(a.freePages))
	}
	if _, err := a.ReadPage(first+2, buf); err != nil || !bytes.Equal(buf, zeros) {
		t.Errorf("copyback of a nil-data page reads non-zero (err %v)", err)
	}
}

// Every free buffer was a programmed page before its erase, so free plus
// programmed buffers never exceed the most pages ever programmed at once —
// and no buffer is ever in two places.
func TestFreeListIsBoundedByProgrammedPeak(t *testing.T) {
	for _, seed := range []int64{1, 42, 2015} {
		a := newTestArray(t, Options{StoreData: true})
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, a.geo.PageSize)
		held := func() int { // page buffers the blocks hold
			n := 0
			for i := range a.blocks {
				for _, d := range a.blocks[i].data {
					if d != nil {
						n++
					}
				}
			}
			return n
		}
		peak := 0
		for step := 0; step < 20000; step++ {
			b := PBN(rng.Intn(a.geo.TotalBlocks()))
			next := a.NextProgramPage(b)
			p := a.geo.FirstPage(b) + PPN(next)
			var err error
			switch {
			case next == a.geo.PagesPerBlock || rng.Intn(24) == 0:
				err = a.EraseBlock(b)
			case rng.Intn(3) == 0:
				err = a.ProgramPage(p, nil, OOB{})
			case rng.Intn(2) == 0:
				err = a.ProgramPartial(p, 0, data[:64], OOB{})
			default:
				err = a.ProgramPage(p, data, OOB{})
			}
			if err != nil {
				t.Fatal(err)
			}
			programmed := held()
			peak = max(peak, programmed)
			if len(a.freePages)+programmed > peak {
				t.Fatalf("seed %d step %d: %d free + %d programmed buffers exceed the programmed peak %d",
					seed, step, len(a.freePages), programmed, peak)
			}
		}
		seen := map[*byte]bool{}
		note := func(d []byte) {
			if seen[&d[0]] {
				t.Fatalf("seed %d: one buffer is held twice", seed)
			}
			seen[&d[0]] = true
		}
		for _, d := range a.freePages {
			note(d)
		}
		for i := range a.blocks {
			for _, d := range a.blocks[i].data {
				if d != nil {
					note(d)
				}
			}
		}
		if len(seen) != peak {
			t.Errorf("seed %d: %d buffers exist, programmed peak was %d", seed, len(seen), peak)
		}
	}
}
