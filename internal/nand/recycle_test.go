package nand

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
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
	if err := a.Copyback(first+1, first+2, OOB{}); err != nil {
		t.Fatal(err)
	}
	if d := a.block(b).data[2]; d != nil || len(a.freePages) != free {
		t.Errorf("copyback of a nil-data page stored a buffer (free %d -> %d)", free, len(a.freePages))
	}
	if _, err := a.ReadPage(first+2, buf); err != nil || !bytes.Equal(buf, zeros) {
		t.Errorf("copyback of a nil-data page reads non-zero (err %v)", err)
	}
}

// ring returns the holders of p's image by following the ring of shared
// links from p, p first; it stops early on a link that leaves the pages.
func ring(a *Array, p PPN) []PPN {
	r := []PPN{p}
	for q := p; a.shared[q] != 0 && a.shared[q]-1 != p && len(r) <= len(a.shared); {
		q = a.shared[q] - 1
		r = append(r, q)
	}
	return r
}

// Every free image was held by a programmed page before its last
// holder's erase, so free plus held images never exceed the most pages
// that ever held one at once. A random walk of programs, appends,
// same-plane copybacks and erases checks that against a shadow of every
// page's bytes: each programmed page reads back its shadow, no free image
// is held or listed twice, and an image held by several pages got there
// only by copyback.
func TestFreeListIsBoundedByProgrammedPeak(t *testing.T) {
	for _, seed := range []int64{1, 42, 2015} {
		a := newTestArray(t, Options{StoreData: true})
		g := a.geo
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, g.PageSize)
		zeros := make([]byte, g.PageSize)
		// shadow is each programmed page's expected bytes; origin names
		// the program or append that last wrote them, which a copyback
		// passes on to its target.
		shadow := make([][]byte, g.TotalPages())
		origin := make([]int, g.TotalPages())
		distinct, known := map[*byte]bool{}, map[*byte]bool{}
		images := func() (held int) { // pages holding an image; distinct images
			clear(distinct)
			for b := range a.blocks {
				for _, d := range a.blocks[b].data {
					if d != nil {
						held++
						distinct[&d[0]] = true
					}
				}
			}
			return held
		}
		check := func(step int) {
			buf := make([]byte, g.PageSize)
			for p, want := range shadow {
				if want == nil {
					continue
				}
				if _, err := a.ReadPage(PPN(p), buf); err != nil || !bytes.Equal(buf, want) {
					t.Fatalf("seed %d step %d: page %d does not read back its bytes (err %v)", seed, step, p, err)
				}
			}
			pageOf := map[*byte][]PPN{}
			for b := range a.blocks {
				for i, d := range a.blocks[b].data {
					if d != nil {
						pageOf[&d[0]] = append(pageOf[&d[0]], g.FirstPage(PBN(b))+PPN(i))
					}
				}
			}
			for _, pages := range pageOf {
				for _, p := range pages[1:] {
					if origin[p] != origin[pages[0]] {
						t.Fatalf("seed %d step %d: pages %d and %d share an image no copyback shared", seed, step, pages[0], p)
					}
				}
				r := ring(a, pages[0])
				slices.Sort(r)
				if !slices.Equal(r, pages) || len(pages) == 1 && a.shared[pages[0]] != 0 {
					t.Fatalf("seed %d step %d: image held by pages %v is ringed as %v", seed, step, pages, r)
				}
			}
			seen := map[*byte]bool{}
			for _, d := range a.freePages {
				if seen[&d[0]] || pageOf[&d[0]] != nil {
					t.Fatalf("seed %d step %d: a free image is listed twice or still held", seed, step)
				}
				seen[&d[0]] = true
			}
			for k := range pageOf {
				seen[k] = true
			}
			for k := range known {
				if !seen[k] {
					t.Fatalf("seed %d step %d: an image is neither held nor free", seed, step)
				}
			}
			maps.Copy(known, seen)
		}
		peak := 0
		for step := 0; step < 20000; step++ {
			b := PBN(rng.Intn(g.TotalBlocks()))
			bs := &a.blocks[b]
			next := a.NextProgramPage(b)
			p := g.FirstPage(b) + PPN(next)
			rng.Read(data)
			var err error
			switch op := rng.Intn(24); {
			case next == g.PagesPerBlock || op == 0:
				err = a.EraseBlock(b)
				clear(shadow[g.FirstPage(b) : g.FirstPage(b)+PPN(g.PagesPerBlock)])
			case op < 8 && next > 0: // append to an open page, shared or not
				q := g.FirstPage(b) + PPN(rng.Intn(next))
				i := g.PageIndex(q)
				if off := bs.high[i]; off < g.PageSize && bs.partials[i] < maxPartialPrograms {
					n := min(32, g.PageSize-off)
					err = a.ProgramPartial(q, off, data[:n], OOB{})
					shadow[q] = append([]byte(nil), shadow[q]...)
					copy(shadow[q][off:], data[:n])
					origin[q] = step
				}
			case op < 14: // copyback from a programmed page of the plane
				sb := b - b%PBN(g.BlocksPerPlane) + PBN(rng.Intn(g.BlocksPerPlane))
				if n := a.NextProgramPage(sb); n > 0 && sb != b {
					src := g.FirstPage(sb) + PPN(rng.Intn(n))
					err = a.Copyback(src, p, OOB{})
					shadow[p], origin[p] = shadow[src], origin[src]
				}
			case op < 16:
				err = a.ProgramPage(p, nil, OOB{})
				shadow[p], origin[p] = zeros, step
			case op < 20:
				err = a.ProgramPartial(p, 0, data[:64], OOB{})
				shadow[p] = make([]byte, g.PageSize)
				copy(shadow[p], data[:64])
				origin[p] = step
			default:
				err = a.ProgramPage(p, data, OOB{})
				shadow[p], origin[p] = append([]byte(nil), data...), step
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			peak = max(peak, images())
			if len(a.freePages)+len(distinct) > peak {
				t.Fatalf("seed %d step %d: %d free + %d held images exceed the programmed peak %d",
					seed, step, len(a.freePages), len(distinct), peak)
			}
			if step%1000 == 0 {
				check(step)
			}
		}
		check(20000)
	}
}

// A copyback's target holds its source's image itself: no page copy.
func TestCopybackSharesSourceImage(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	fillBlock(t, a, 0, 0x3C)
	free := len(a.freePages)
	if err := a.Copyback(0, a.geo.FirstPage(1), OOB{}); err != nil {
		t.Fatal(err)
	}
	src, dst := a.blocks[0].data[0], a.blocks[1].data[0]
	if &src[0] != &dst[0] {
		t.Fatal("copyback target holds a copy of its source's image, not the image")
	}
	if r := ring(a, 0); !slices.Equal(r, []PPN{0, a.geo.FirstPage(1)}) || len(a.freePages) != free {
		t.Errorf("holders %v, free %d -> %d; want source and target, no image taken",
			r, free, len(a.freePages))
	}
}

// A shared image goes back on the free list once, when the last of its
// holders is erased, whatever the erase order — for a source and its
// target, and for a chain of copybacks A→B→C.
func TestSharedImageRecycledOnLastErase(t *testing.T) {
	orders := [][]PBN{{0, 1}, {1, 0}, {0, 1, 2}, {1, 0, 2}, {1, 2, 0}, {2, 1, 0}, {0, 2, 1}, {2, 0, 1}}
	for _, order := range orders {
		a := newTestArray(t, Options{StoreData: true})
		g := a.geo
		n := PBN(len(order)) // blocks 0..n-1 of plane 0: 0 is filled, each next one copied back from the last
		for i := 0; i < g.PagesPerBlock; i++ {
			if err := a.ProgramPage(PPN(i), bytes.Repeat([]byte{byte(i + 1)}, g.PageSize), OOB{}); err != nil {
				t.Fatal(err)
			}
			for b := PBN(1); b < n; b++ {
				if err := a.Copyback(g.FirstPage(b-1)+PPN(i), g.FirstPage(b)+PPN(i), OOB{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		images := map[*byte]bool{}
		for _, d := range a.blocks[0].data {
			images[&d[0]] = true
		}
		buf := make([]byte, g.PageSize)
		for k, b := range order {
			if err := a.EraseBlock(b); err != nil {
				t.Fatal(err)
			}
			for _, live := range order[k+1:] {
				for i := 0; i < g.PagesPerBlock; i++ {
					if _, err := a.ReadPage(g.FirstPage(live)+PPN(i), buf); err != nil || buf[0] != byte(i+1) || buf[g.PageSize-1] != byte(i+1) {
						t.Fatalf("order %v: block %d page %d lost its bytes after erasing block %d (err %v)", order, live, i, b, err)
					}
				}
			}
			want := 0
			if k == len(order)-1 {
				want = g.PagesPerBlock
			}
			if len(a.freePages) != want {
				t.Fatalf("order %v: %d images free after %d of %d erases, want %d", order, len(a.freePages), k+1, len(order), want)
			}
		}
		for _, d := range a.freePages {
			if !images[&d[0]] {
				t.Fatalf("order %v: an image is recycled twice or is not one of the source's", order)
			}
			delete(images, &d[0])
		}
		if slices.ContainsFunc(a.shared, func(q PPN) bool { return q != 0 }) {
			t.Errorf("order %v: a page is still ringed after every holder's erase", order)
		}
	}
}

// An append to a shared source gets its own image first: the copyback's
// target keeps the bytes it was copied with.
func TestPartialAppendToSharedSourceKeepsTarget(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	g := a.geo
	head, tail := bytes.Repeat([]byte{0x11}, 100), bytes.Repeat([]byte{0x22}, 50)
	if err := a.ProgramPartial(0, 0, head, OOB{}); err != nil {
		t.Fatal(err)
	}
	dst := g.FirstPage(1)
	if err := a.Copyback(0, dst, OOB{}); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramPartial(0, 100, tail, OOB{}); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, g.PageSize)
	copy(want, head)
	buf := make([]byte, g.PageSize)
	if _, err := a.ReadPage(dst, buf); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("target changed under an append to its source (err %v)", err)
	}
	copy(want[100:], tail)
	if _, err := a.ReadPage(0, buf); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("source lost its append (err %v)", err)
	}
	if a.shared[0] != 0 || a.shared[dst] != 0 {
		t.Error("source or target still ringed after the append split their images")
	}
}

// Once warm, a fill / copy back / erase-both cycle runs on recycled
// images and reused holder counts alone.
func TestCopybackAfterEraseAllocatesNothing(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	g := a.geo
	data := bytes.Repeat([]byte{7}, g.PageSize)
	src, dst := g.FirstPage(0), g.FirstPage(1)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < g.PagesPerBlock; i++ {
			if err := a.ProgramPage(src+PPN(i), data, OOB{}); err != nil {
				t.Fatal(err)
			}
			if err := a.Copyback(src+PPN(i), dst+PPN(i), OOB{}); err != nil {
				t.Fatal(err)
			}
		}
		if a.EraseBlock(0) != nil || a.EraseBlock(1) != nil {
			t.Fatal("erase failed")
		}
	})
	if allocs != 0 {
		t.Errorf("program + copyback x%d + erase both: %v allocs per cycle, want 0", g.PagesPerBlock, allocs)
	}
}
