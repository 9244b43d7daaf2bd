package noftl

import (
	"errors"
	"fmt"
	"sort"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
)

// Rebuild reconstructs a Volume's mapping state from the out-of-band
// metadata on flash — the host-side restart path: NoFTL keeps the
// translation table in DBMS memory, so after a restart the table is
// rebuilt by scanning page OOBs and keeping the highest write sequence
// per logical page. The scan is charged as real page reads.
//
// Delta pages (OOB flag oobDeltaFlag) hold packed self-describing
// records; the scan parses them and reattaches each page's delta chain:
// records newer than the page's newest full image, ordered by sequence
// number. Records the last fold or overwrite superseded are dead and
// are left for GC.
//
// Rebuild restores the last-written version of every page; pages the
// DBMS had invalidated before the restart reappear as valid until the
// storage engine's recovery re-applies its free-space knowledge (the
// engine, not the volume, is the authority on dead pages).
func Rebuild(dev *flash.Device, cfg Config, rq ioreq.Req) (*Volume, error) {
	v, err := New(dev, cfg)
	if err != nil {
		return nil, err
	}
	w := rq.Waiter()
	geo := dev.Geometry()
	arr := dev.Array()
	type best struct {
		seq uint64
		ppn nand.PPN
	}
	type deltaRec struct {
		seq    uint64
		ppn    nand.PPN
		off, n int
	}
	latest := make(map[int64]best)
	deltas := make(map[int64][]deltaRec) // global LPN → scanned records
	maxSeq := uint64(0)
	var buf []byte
	if arr.StoresData() {
		buf = make([]byte, geo.PageSize)
	}

	// Region-scoped volumes scan only their own dies; foreign dies (other
	// regions of the same device) are invisible to this volume. A page is
	// foreign too when its LPN is out of range or stripes to another die:
	// no write, GC move, wear move or salvage crosses dies, and installing
	// one would put this die's address into the other die's table.
	ours := func(d *dieMgr, lpn int64) bool {
		return lpn >= 0 && lpn < v.st.Total() && v.st.DieOf(lpn) == d.idx
	}
	mgrOfDie := make(map[int]*dieMgr, len(v.dies))
	for _, d := range v.dies {
		mgrOfDie[d.sp.Die] = d
	}
	for b := 0; b < geo.TotalBlocks(); b++ {
		pbn := nand.PBN(b)
		d := mgrOfDie[geo.DieOfBlock(pbn)]
		if d == nil {
			continue
		}
		local := d.sp.Local(pbn)
		if arr.IsBad(pbn) {
			d.bt.Retire(local)
			continue
		}
		programmed := arr.NextProgramPage(pbn)
		if programmed == 0 {
			continue // free block, already in the pool
		}
		// Take the block out of the free pool; it holds data.
		d.claimScanned(local)
		for pg := 0; pg < programmed; pg++ {
			ppn := geo.FirstPage(pbn) + nand.PPN(pg)
			oob, err := dev.ReadPage(w, ppn, buf)
			if errors.Is(err, nand.ErrPageErased) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("noftl: rebuild scan: %w", err)
			}
			if oob.Flags&ftl.OOBSeqLogFlag != 0 {
				continue // a sequential-log region's page on a shared die
			}
			if oob.Flags&oobDeltaFlag != 0 {
				if buf == nil {
					continue // counting-only array: payloads are gone
				}
				for off := 0; off+deltaHeaderSize <= len(buf); {
					lpn, seq, _, n, perr := parseDeltaRecord(buf[off:])
					if perr != nil {
						break // end of packed records
					}
					if ours(d, lpn) {
						deltas[lpn] = append(deltas[lpn], deltaRec{seq: seq, ppn: ppn, off: off, n: n})
						if seq > maxSeq {
							maxSeq = seq
						}
					}
					off += n
				}
				continue
			}
			lpn := int64(oob.LPN)
			if !ours(d, lpn) {
				continue // filler or foreign page
			}
			if oob.Seq > maxSeq {
				maxSeq = oob.Seq
			}
			if cur, ok := latest[lpn]; !ok || oob.Seq > cur.seq {
				latest[lpn] = best{seq: oob.Seq, ppn: ppn}
			}
		}
	}
	for lpn, b := range latest {
		die := v.st.DieOf(lpn)
		d := v.dies[die]
		d.l2p[v.st.DieLPN(lpn)] = b.ppn
		local, page := d.sp.LocalOfPPN(b.ppn)
		d.bt.SetOwner(local, page, v.st.DieLPN(lpn))
	}
	// Reattach delta chains: records newer than the base image, oldest
	// first.
	for lpn, recs := range deltas {
		baseSeq := latest[lpn].seq // zero when the page has no full image
		sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
		d := v.dies[v.st.DieOf(lpn)]
		dlpn := v.st.DieLPN(lpn)
		for _, r := range recs {
			if r.seq <= baseSeq {
				continue // superseded by a later full image or fold
			}
			d.chains[dlpn] = append(d.chains[dlpn], chainRef{ppn: r.ppn, off: r.off, n: r.n})
			pi := d.deltaPages[r.ppn]
			if pi == nil {
				pi = &deltaPageInfo{}
				d.deltaPages[r.ppn] = pi
			}
			pi.live++
			pi.residents = append(pi.residents, dlpn)
		}
	}
	// Delta pages with surviving records become delta-owned slots; fully
	// dead ones stay invalid and are reclaimed by GC. Pages are not
	// reopened for appends after a restart (their NOP budget is unknown
	// to be worth chasing); new appends start fresh delta pages.
	for _, d := range v.dies {
		for ppn := range d.deltaPages {
			local, page := d.sp.LocalOfPPN(ppn)
			d.bt.SetOwner(local, page, deltaOwner)
		}
		d.seq = maxSeq + 1
	}
	return v, nil
}

// claimScanned moves a free block into the Used state during a rebuild
// scan (it contains programmed pages).
func (d *dieMgr) claimScanned(local int) {
	plane := d.sp.PlaneOf(local)
	if got, ok := d.bt.TakeFree(plane, local); !ok || got != local {
		// Should not happen: rebuild starts from a fresh table where
		// every non-bad block is free.
		panic(fmt.Sprintf("noftl: rebuild could not claim block %d", local))
	}
}
