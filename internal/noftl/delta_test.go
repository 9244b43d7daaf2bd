package noftl

import (
	"bytes"
	"math/rand"
	"noftl/internal/ioreq"
	"testing"

	"noftl/internal/delta"
	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

func deltaTestVolume(t *testing.T, cfg Config) (*Volume, *flash.Device, sim.Waiter) {
	t.Helper()
	dc := flash.EmulatorConfig(2, 8, nand.SLC)
	dc.Nand.StoreData = true
	dev := flash.New(dc)
	v, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v, dev, &sim.ClockWaiter{}
}

// mutate applies n random small edits to page and returns the encoded
// differential describing them.
func mutate(rng *rand.Rand, page []byte, n int) []byte {
	before := append([]byte(nil), page...)
	for i := 0; i < n; i++ {
		off := rng.Intn(len(page) - 8)
		for j := 0; j < 4+rng.Intn(12); j++ {
			page[off+j] = byte(rng.Int())
		}
	}
	return delta.Encode(delta.Diff(nil, before, page, 16), page)
}

func TestWriteDeltaFoldOnRead(t *testing.T) {
	v, _, w := deltaTestVolume(t, Config{})
	rng := rand.New(rand.NewSource(1))
	ps := v.Identify().Geometry.PageSize

	want := make([]byte, ps)
	rng.Read(want)
	if err := v.Write(ioreq.Plain(w), 3, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		enc := mutate(rng, want, 2)
		if err := v.WriteDelta(ioreq.Plain(w), 3, enc); err != nil {
			t.Fatal(err)
		}
	}
	if got := chainLen(v, 3); got != 3 {
		t.Fatalf("chain length = %d, want 3", got)
	}
	buf := make([]byte, ps)
	if err := v.Read(ioreq.Plain(w), 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("fold-on-read did not reproduce the page")
	}
	s := v.Stats()
	if s.DeltaWrites != 3 || s.DeltaBytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if err := v.checkAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDeltaForcedFoldAtMaxChain(t *testing.T) {
	v, _, w := deltaTestVolume(t, Config{})
	rng := rand.New(rand.NewSource(2))
	ps := v.Identify().Geometry.PageSize

	want := make([]byte, ps)
	rng.Read(want)
	if err := v.Write(ioreq.Plain(w), 0, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*maxDeltaChain+1; i++ {
		if err := v.WriteDelta(ioreq.Plain(w), 0, mutate(rng, want, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Appends at chain 0..max-1, a fold absorbing the next, then appends
	// at 0..max-1 again.
	s := v.Stats()
	if s.Folds == 0 {
		t.Fatal("no forced fold happened")
	}
	if got := chainLen(v, 0); got > maxDeltaChain {
		t.Fatalf("chain length %d exceeds maxDeltaChain", got)
	}
	buf := make([]byte, ps)
	if err := v.Read(ioreq.Plain(w), 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("page diverged across forced folds")
	}
	if err := v.checkAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDeltaAgainstUnwrittenPage(t *testing.T) {
	v, _, w := deltaTestVolume(t, Config{})
	ps := v.Identify().Geometry.PageSize
	want := make([]byte, ps)
	want[100] = 0xAB
	enc := delta.Encode([]delta.Run{{Off: 100, Len: 1}}, want)
	if err := v.WriteDelta(ioreq.Plain(w), 9, enc); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	if err := v.Read(ioreq.Plain(w), 9, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("delta against the zero base lost")
	}
}

func TestFullWriteSupersedesChain(t *testing.T) {
	v, _, w := deltaTestVolume(t, Config{})
	rng := rand.New(rand.NewSource(3))
	ps := v.Identify().Geometry.PageSize
	page := make([]byte, ps)
	rng.Read(page)
	if err := v.Write(ioreq.Plain(w), 1, page); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteDelta(ioreq.Plain(w), 1, mutate(rng, page, 1)); err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, ps)
	rng.Read(fresh)
	if err := v.Write(ioreq.Plain(w), 1, fresh); err != nil {
		t.Fatal(err)
	}
	if got := chainLen(v, 1); got != 0 {
		t.Fatalf("chain survived a full write: %d", got)
	}
	buf := make([]byte, ps)
	if err := v.Read(ioreq.Plain(w), 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatal("full write lost to stale deltas")
	}
	if err := v.checkAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateDropsChain(t *testing.T) {
	v, _, w := deltaTestVolume(t, Config{})
	rng := rand.New(rand.NewSource(4))
	ps := v.Identify().Geometry.PageSize
	page := make([]byte, ps)
	rng.Read(page)
	if err := v.Write(ioreq.Plain(w), 2, page); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteDelta(ioreq.Plain(w), 2, mutate(rng, page, 1)); err != nil {
		t.Fatal(err)
	}
	if err := v.Invalidate(2); err != nil {
		t.Fatal(err)
	}
	if got := chainLen(v, 2); got != 0 {
		t.Fatalf("chain survived invalidate: %d", got)
	}
	buf := make([]byte, ps)
	if err := v.Read(ioreq.Plain(w), 2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, ps)) {
		t.Fatal("invalidated page not zero")
	}
	if err := v.checkAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaChurnWithGC drives enough delta traffic through a small
// volume that GC must collect blocks containing both delta pages and
// chained base pages, then verifies every page against a shadow model.
func TestDeltaChurnWithGC(t *testing.T) {
	v, _, w := deltaTestVolume(t, Config{OverProvision: 0.2})
	rng := rand.New(rand.NewSource(5))
	ps := v.Identify().Geometry.PageSize
	n := v.LogicalPages()
	if n > 256 {
		n = 256
	}
	shadow := make([][]byte, n)
	for lpn := int64(0); lpn < n; lpn++ {
		shadow[lpn] = make([]byte, ps)
		rng.Read(shadow[lpn])
		if err := v.Write(ioreq.Plain(w), lpn, shadow[lpn]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6000; i++ {
		lpn := rng.Int63n(n)
		switch rng.Intn(10) {
		case 0, 1: // full rewrite
			rng.Read(shadow[lpn])
			if err := v.Write(ioreq.Plain(w), lpn, shadow[lpn]); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
		case 2: // invalidate
			for j := range shadow[lpn] {
				shadow[lpn][j] = 0
			}
			if err := v.Invalidate(lpn); err != nil {
				t.Fatal(err)
			}
		default: // delta append
			enc := mutate(rng, shadow[lpn], 1+rng.Intn(2))
			if err := v.WriteDelta(ioreq.Plain(w), lpn, enc); err != nil {
				t.Fatalf("op %d delta: %v", i, err)
			}
		}
	}
	s := v.Stats()
	if s.DeltaWrites == 0 || s.Folds == 0 || s.Erases == 0 {
		t.Fatalf("churn did not exercise the delta+GC machinery: %+v", s)
	}
	if err := v.checkAccounting(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	for lpn := int64(0); lpn < n; lpn++ {
		if err := v.Read(ioreq.Plain(w), lpn, buf); err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if !bytes.Equal(buf, shadow[lpn]) {
			t.Fatalf("page %d diverged from shadow", lpn)
		}
	}
}

// TestDeltaSurvivesBadBlocks runs the churn with program/erase failure
// injection: appends must survive delta-page retirement and salvage.
func TestDeltaSurvivesBadBlocks(t *testing.T) {
	dc := flash.EmulatorConfig(1, 8, nand.SLC)
	dc.Nand.StoreData = true
	dc.Nand.ProgramFailProb = 0.002
	dc.Nand.EraseFailProb = 0.002
	dc.Nand.Seed = 99
	dev := flash.New(dc)
	v, err := New(dev, Config{OverProvision: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	rng := rand.New(rand.NewSource(6))
	ps := dc.Geometry.PageSize
	n := v.LogicalPages() / 2
	if n > 128 {
		n = 128
	}
	shadow := make([][]byte, n)
	for lpn := int64(0); lpn < n; lpn++ {
		shadow[lpn] = make([]byte, ps)
		rng.Read(shadow[lpn])
		if err := v.Write(ioreq.Plain(w), lpn, shadow[lpn]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		lpn := rng.Int63n(n)
		if rng.Intn(4) == 0 {
			rng.Read(shadow[lpn])
			if err := v.Write(ioreq.Plain(w), lpn, shadow[lpn]); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
			continue
		}
		enc := mutate(rng, shadow[lpn], 1)
		if err := v.WriteDelta(ioreq.Plain(w), lpn, enc); err != nil {
			t.Fatalf("op %d delta: %v", i, err)
		}
	}
	if err := v.checkAccounting(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	for lpn := int64(0); lpn < n; lpn++ {
		if err := v.Read(ioreq.Plain(w), lpn, buf); err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if !bytes.Equal(buf, shadow[lpn]) {
			t.Fatalf("page %d diverged from shadow", lpn)
		}
	}
}

func TestRebuildRestoresDeltaChains(t *testing.T) {
	dc := flash.EmulatorConfig(2, 8, nand.SLC)
	dc.Nand.StoreData = true
	dev := flash.New(dc)
	v, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	rng := rand.New(rand.NewSource(7))
	ps := dc.Geometry.PageSize
	const n = 32
	shadow := make([][]byte, n)
	for lpn := int64(0); lpn < n; lpn++ {
		shadow[lpn] = make([]byte, ps)
		rng.Read(shadow[lpn])
		if err := v.Write(ioreq.Plain(w), lpn, shadow[lpn]); err != nil {
			t.Fatal(err)
		}
	}
	// Leave a mix of chained, folded and overwritten pages behind.
	for i := 0; i < 200; i++ {
		lpn := rng.Int63n(n)
		if rng.Intn(5) == 0 {
			rng.Read(shadow[lpn])
			if err := v.Write(ioreq.Plain(w), lpn, shadow[lpn]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := v.WriteDelta(ioreq.Plain(w), lpn, mutate(rng, shadow[lpn], 1)); err != nil {
			t.Fatal(err)
		}
	}
	chained := 0
	for lpn := int64(0); lpn < n; lpn++ {
		if chainLen(v, lpn) > 0 {
			chained++
		}
	}
	if chained == 0 {
		t.Fatal("no chains to rebuild")
	}

	// Host restart: the volume object (l2p, chains) is dropped; only
	// flash contents survive.
	v2, err := Rebuild(dev, Config{}, ioreq.Plain(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.checkAccounting(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	for lpn := int64(0); lpn < n; lpn++ {
		if err := v2.Read(ioreq.Plain(w), lpn, buf); err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if !bytes.Equal(buf, shadow[lpn]) {
			t.Fatalf("page %d wrong after rebuild (chain len %d)", lpn, chainLen(v2, lpn))
		}
	}
	// And the rebuilt volume keeps working on the delta path.
	for i := 0; i < 100; i++ {
		lpn := rng.Int63n(n)
		if err := v2.WriteDelta(ioreq.Plain(w), lpn, mutate(rng, shadow[lpn], 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v2.checkAccounting(); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < n; lpn++ {
		if err := v2.Read(ioreq.Plain(w), lpn, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, shadow[lpn]) {
			t.Fatalf("page %d diverged after post-rebuild appends", lpn)
		}
	}
}

// TestDeltaBytesBeatFullPages is the micro version of the bench
// acceptance criterion: for small-update churn, the delta path must
// program far fewer bytes than full-page writes for the same logical
// work.
func TestDeltaBytesBeatFullPages(t *testing.T) {
	run := func(useDelta bool) int64 {
		dc := flash.EmulatorConfig(1, 8, nand.SLC)
		dc.Nand.StoreData = true
		dev := flash.New(dc)
		v, err := New(dev, Config{})
		if err != nil {
			t.Fatal(err)
		}
		w := &sim.ClockWaiter{}
		rng := rand.New(rand.NewSource(11))
		ps := dc.Geometry.PageSize
		const n = 64
		pages := make([][]byte, n)
		for lpn := int64(0); lpn < n; lpn++ {
			pages[lpn] = make([]byte, ps)
			rng.Read(pages[lpn])
			if err := v.Write(ioreq.Plain(w), lpn, pages[lpn]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			lpn := rng.Int63n(n)
			enc := mutate(rng, pages[lpn], 1)
			if useDelta {
				err = v.WriteDelta(ioreq.Plain(w), lpn, enc)
			} else {
				err = v.Write(ioreq.Plain(w), lpn, pages[lpn])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return dev.Stats().ProgramBytes
	}
	full := run(false)
	withDelta := run(true)
	if withDelta*2 >= full {
		t.Fatalf("delta path programmed %d bytes, full-page %d: want <50%%", withDelta, full)
	}
}

// TestChainedReadDispatchesAtDeclaredClass: a read of a page with a
// delta chain costs several flash reads (base image plus delta pages),
// and every one of them must dispatch at the class the request declared
// — a speculative read-ahead of a chained page may not put
// foreground-class reads on the die queues. A read declaring nothing
// dispatches them all at the foreground read class.
func TestChainedReadDispatchesAtDeclaredClass(t *testing.T) {
	dc := flash.EmulatorConfig(2, 8, nand.SLC)
	dc.Nand.StoreData = true
	dev := flash.New(dc)
	k := sim.New()
	defer k.Shutdown()
	var evs []sched.Event
	s := sched.New(k, dev, sched.Config{Policy: sched.Priority,
		Trace: func(ev sched.Event) { evs = append(evs, ev) }})
	v, err := New(dev, Config{Dev: s.Dev()})
	if err != nil {
		t.Fatal(err)
	}
	// Serial set-up bypasses the queues: a base image and a 3-record chain.
	rng := rand.New(rand.NewSource(1))
	want := make([]byte, v.Identify().Geometry.PageSize)
	rng.Read(want)
	cw := ioreq.Plain(&sim.ClockWaiter{})
	if err := v.Write(cw, 3, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := v.WriteDelta(cw, 3, mutate(rng, want, 2)); err != nil {
			t.Fatal(err)
		}
	}

	var afterPrefetch sched.Stats
	var prefetchCmds int
	k.Go("reader", func(p *sim.Proc) {
		rq := ioreq.Plain(sim.ProcWaiter{P: p})
		buf := make([]byte, len(want))
		for _, r := range []ioreq.Req{rq.WithClass(ioreq.ClassPrefetch), rq} {
			if err := v.Read(r, 3, buf); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(buf, want) {
				t.Errorf("class-%v read did not reproduce the folded page", r.Class)
			}
			if r.Class == ioreq.ClassPrefetch {
				afterPrefetch, prefetchCmds = s.Stats(), len(evs)
			}
		}
	})
	k.Run()

	n := afterPrefetch.Scheduled[sched.ClassPrefetch]
	if n < 2 || afterPrefetch.TotalScheduled() != n {
		t.Fatalf("prefetch read of a chained page must dispatch only prefetch commands (base + delta pages): %v",
			afterPrefetch.Scheduled)
	}
	st := s.Stats()
	if st.Scheduled[sched.ClassRead] != n || st.TotalScheduled() != 2*n {
		t.Fatalf("default read of the same page must dispatch the same %d commands at the read class only: %v",
			n, st.Scheduled)
	}
	for i, ev := range evs {
		wantClass := sched.ClassPrefetch
		if i >= prefetchCmds {
			wantClass = sched.ClassRead
		}
		if ev.Op != "read" || ev.Class != wantClass {
			t.Fatalf("command %d: %+v, want a %v-class read", i, ev, wantClass)
		}
	}
}

// chainLen is lpn's current delta-chain length (0: a plain full image).
func chainLen(v *Volume, lpn int64) int {
	return len(v.dies[v.st.DieOf(lpn)].chains[v.st.DieLPN(lpn)])
}
