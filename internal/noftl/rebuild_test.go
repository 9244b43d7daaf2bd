package noftl

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"noftl/internal/delta"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// checkRebuilt asserts what a rebuilt volume owes its first reader
// whatever image it came from: consistent block accounting, no physical
// page mapped twice, every logical page and delta record on the die its
// LPN stripes to, and reads that answer rather than panic.
func checkRebuilt(t *testing.T, v *Volume) {
	t.Helper()
	if err := v.checkAccounting(); err != nil {
		t.Fatal(err)
	}
	geo := v.dev.Geometry()
	mapped := map[nand.PPN]int64{}
	for _, d := range v.dies {
		for dlpn, ppn := range d.l2p {
			if ppn == nand.InvalidPPN {
				continue
			}
			lpn := d.globalLPN(int64(dlpn))
			if prev, dup := mapped[ppn]; dup {
				t.Fatalf("ppn %d mapped by lpn %d and lpn %d", ppn, prev, lpn)
			}
			mapped[ppn] = lpn
			if geo.DieOf(ppn) != d.sp.Die {
				t.Fatalf("lpn %d of die %d mapped to ppn %d on die %d", lpn, d.sp.Die, ppn, geo.DieOf(ppn))
			}
		}
		for dlpn, chain := range d.chains {
			for _, ref := range chain {
				if geo.DieOf(ref.ppn) != d.sp.Die {
					t.Fatalf("delta chain of lpn %d on die %d references ppn %d on die %d",
						d.globalLPN(dlpn), d.sp.Die, ref.ppn, geo.DieOf(ref.ppn))
				}
			}
		}
	}
	w := ioreq.Plain(&sim.ClockWaiter{})
	buf := make([]byte, geo.PageSize)
	for lpn := int64(0); lpn < v.LogicalPages(); lpn++ {
		_ = v.Read(w, lpn, buf) // a forged delta payload may fail to apply; it must not panic
	}
}

// TestRebuildSkipsCrossDieLPN forges a page on die 1 whose OOB claims
// LPN 0, which stripes to die 0, with a newer sequence number than LPN
// 0's real image. No write, GC move, wear move or salvage ever crosses
// dies, so the scan must treat it as foreign: installing it would put a
// die-1 address into die 0's table. At die 0's address of LPN 4 that
// double-books a slot; elsewhere it leaves the table disagreeing with the
// owners; as a delta record it would fold another die's bytes into LPN 0.
func TestRebuildSkipsCrossDieLPN(t *testing.T) {
	for _, c := range []struct {
		name           string
		atOwnedAddress bool
		asDelta        bool
	}{
		{"image-at-lpn4-address", true, false},
		{"image-at-free-address", false, false},
		{"delta-record", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := testDevice(nand.Options{})
			v, err := New(dev, Config{})
			if err != nil {
				t.Fatal(err)
			}
			w := &sim.ClockWaiter{}
			for _, lpn := range []int64{0, 4} {
				if err := v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, 1)); err != nil {
					t.Fatal(err)
				}
			}
			d0 := v.dies[0]
			local, page := d0.sp.Blocks()-1, 0 // a block die 0 never opened
			if c.atOwnedAddress {
				local, page = d0.sp.LocalOfPPN(d0.l2p[v.st.DieLPN(4)])
			}
			forged := ftl.NewDieSpace(dev, 1).PPN(local, page)
			const seq = 1000
			data, oob := fillPage(256, 0, 2), nand.OOB{LPN: 0, Seq: seq}
			if c.asDelta {
				data = make([]byte, 256)
				img := fillPage(256, 0, 2)
				copy(data, encodeDeltaRecord(0, seq, delta.Encode([]delta.Run{{Off: 8, Len: 8}}, img)))
				oob = nand.OOB{LPN: ^uint64(0), Seq: seq, Flags: oobDeltaFlag}
			}
			if err := dev.ProgramPage(w, forged, data, oob); err != nil {
				t.Fatal(err)
			}

			v2, err := Rebuild(dev, Config{}, ioreq.Plain(w))
			if err != nil {
				t.Fatal(err)
			}
			checkRebuilt(t, v2)
			if n := chainLen(v2, 0); n != 0 {
				t.Fatalf("lpn 0 rebuilt with a %d-record chain from die 1", n)
			}
			buf := make([]byte, 256)
			for _, lpn := range []int64{0, 4} {
				if err := v2.Read(ioreq.Plain(w), lpn, buf); err != nil {
					t.Fatal(err)
				}
				if got := binary.LittleEndian.Uint64(buf[8:]); got != 1 {
					t.Fatalf("lpn %d reads version %d after rebuild, want its own write (1)", lpn, got)
				}
			}
		})
	}
}

// TestRebuildIsDeterministic rebuilds one device holding shared delta
// pages again and again: every rebuild must give the same chains and the
// same residents in the same order, since a delta page's GC folds its
// residents in that order.
func TestRebuildIsDeterministic(t *testing.T) {
	v, dev, w := deltaTestVolume(t, Config{})
	rng := rand.New(rand.NewSource(3))
	page := make([]byte, dev.Geometry().PageSize)
	const n = 32
	for lpn := int64(0); lpn < n; lpn++ {
		if err := v.Write(ioreq.Plain(w), lpn, page); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := int64(0); lpn < n; lpn++ { // small records: many LPNs share a delta page
		if err := v.WriteDelta(ioreq.Plain(w), lpn, mutate(rng, page, 1)); err != nil {
			t.Fatal(err)
		}
	}
	type dieState struct {
		chains     map[int64][]chainRef
		deltaPages map[nand.PPN]deltaPageInfo
	}
	state := func(v *Volume) []dieState {
		var out []dieState
		for _, d := range v.dies {
			s := dieState{chains: d.chains, deltaPages: map[nand.PPN]deltaPageInfo{}}
			for ppn, pi := range d.deltaPages {
				s.deltaPages[ppn] = *pi
			}
			out = append(out, s)
		}
		return out
	}
	var want []dieState
	for i := 0; i < 20; i++ {
		v2, err := Rebuild(dev, Config{}, ioreq.Plain(w))
		if err != nil {
			t.Fatal(err)
		}
		got := state(v2)
		if i == 0 {
			want = got
			shared := false
			for _, s := range got {
				for _, pi := range s.deltaPages {
					shared = shared || len(pi.residents) > 1
				}
			}
			if !shared {
				t.Fatal("no delta page holds two residents: the order is unexercised")
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rebuild %d differs from the first:\n%+v\nwant\n%+v", i, got, want)
		}
	}
}

// TestRebuildKeepsFormattedCapacity grows bad blocks under a volume that
// holds every LPN, then restarts it: the rebuilt volume must export the
// capacity it was formatted with, and every LPN must read back its bytes.
func TestRebuildKeepsFormattedCapacity(t *testing.T) {
	dc := flash.EmulatorConfig(2, 32, nand.SLC)
	dc.Nand.StoreData = true
	dc.Nand.ProgramFailProb = 0.002
	dc.Nand.Seed = 99
	dev := flash.New(dc)
	v, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := ioreq.Plain(&sim.ClockWaiter{})
	rng := rand.New(rand.NewSource(5))
	n := v.LogicalPages()
	shadow := make([][]byte, n)
	for lpn := range shadow {
		shadow[lpn] = make([]byte, dc.Geometry.PageSize)
		rng.Read(shadow[lpn])
		if err := v.Write(w, int64(lpn), shadow[lpn]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; dev.Array().Counters().GrownBad < 2; i++ {
		if i == 20*int(n) {
			t.Fatalf("%d overwrites grew %d bad blocks", i, dev.Array().Counters().GrownBad)
		}
		lpn := rng.Int63n(n)
		rng.Read(shadow[lpn])
		if err := v.Write(w, lpn, shadow[lpn]); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := Rebuild(dev, Config{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if v2.LogicalPages() != n {
		t.Fatalf("rebuilt capacity %d pages, formatted %d", v2.LogicalPages(), n)
	}
	buf := make([]byte, dc.Geometry.PageSize)
	for lpn := range shadow {
		if err := v2.Read(w, int64(lpn), buf); err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if !bytes.Equal(buf, shadow[lpn]) {
			t.Fatalf("lpn %d lost its bytes across the restart", lpn)
		}
	}
}
