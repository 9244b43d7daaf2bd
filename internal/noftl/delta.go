package noftl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"noftl/internal/delta"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// In-place appends (IPA): the delta-write path.
//
// A buffer-pool flush that changed a few dozen bytes of a page does not
// need a full out-of-place page program. WriteDelta appends a compact
// page differential (package delta) to a per-plane "delta page" using
// the device's partial-page program (NOP) capability, so several deltas
// from different logical pages pack into one physical page and each
// append occupies the bus and the die proportionally to its size.
//
// Per logical page the volume keeps a chain of delta locations in host
// RAM (like the l2p table, it is rebuilt from flash after a restart).
// Reads fold the chain onto the base image on the fly; the chain is
// folded into a fresh full page when it reaches maxDeltaChain, and
// during GC — so GC relocates one folded page instead of a base
// page plus N stale delta versions.
//
// Deltas are absolute byte-range overwrites, so folding is idempotent:
// a reader that observes a half-folded state (new base, chain not yet
// cleared) re-applies deltas whose bytes the base already contains and
// still produces the correct image.

// ErrDeltaTooLarge rejects deltas that cannot fit a delta page; the
// caller should fall back to a full-page write.
var ErrDeltaTooLarge = errors.New("noftl: delta record larger than page capacity")

// deltaOwner is the BlockTable owner sentinel for physical pages holding
// packed delta records (they belong to many logical pages at once).
const deltaOwner int64 = -2

// oobDeltaFlag marks a delta page in the spare area so the rebuild scan
// can tell packed delta records from full page images. (Bit 0 is used by
// DFTL for translation pages; NoFTL volumes never mix with DFTL on one
// device, but staying disjoint costs nothing.)
const oobDeltaFlag uint32 = 1 << 1

// On-flash delta record: header {u32 magic, u64 global LPN, u64 seq,
// u16 payload len} followed by a delta.Encode payload. Records are
// self-describing because NAND spare areas cannot be appended to — the
// OOB of a delta page describes only its first record.
const (
	deltaMagic      = 0x444C5441 // "DLTA"
	deltaHeaderSize = 4 + 8 + 8 + 2
)

func encodeDeltaRecord(lpn int64, seq uint64, payload []byte) []byte {
	out := make([]byte, 0, deltaHeaderSize+len(payload))
	out = binary.LittleEndian.AppendUint32(out, deltaMagic)
	out = binary.LittleEndian.AppendUint64(out, uint64(lpn))
	out = binary.LittleEndian.AppendUint64(out, seq)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(payload)))
	return append(out, payload...)
}

// parseDeltaRecord decodes one record at the head of b, returning the
// total record length.
func parseDeltaRecord(b []byte) (lpn int64, seq uint64, payload []byte, n int, err error) {
	if len(b) < deltaHeaderSize || binary.LittleEndian.Uint32(b) != deltaMagic {
		return 0, 0, nil, 0, delta.ErrCorrupt
	}
	lpn = int64(binary.LittleEndian.Uint64(b[4:]))
	seq = binary.LittleEndian.Uint64(b[12:])
	plen := int(binary.LittleEndian.Uint16(b[20:]))
	if deltaHeaderSize+plen > len(b) {
		return 0, 0, nil, 0, delta.ErrCorrupt
	}
	return lpn, seq, b[deltaHeaderSize : deltaHeaderSize+plen], deltaHeaderSize + plen, nil
}

// maxDeltaChain bounds a page's delta chain before a forced fold
// rewrites the page in full. Longer chains amortize more appends per fold
// but cost more reads per fold and per ReadPage.
const maxDeltaChain = 4

// chainRef locates one delta record on flash.
type chainRef struct {
	ppn nand.PPN
	off int // byte offset of the record within the page
	n   int // total record length (header + payload)
}

// deltaPageInfo tracks the live records packed into one physical page.
type deltaPageInfo struct {
	live      int
	residents []int64 // die-local LPN per live record (duplicates allowed)
}

// openDeltaPage is a plane's partially-programmed delta page still
// accepting appends.
type openDeltaPage struct {
	ppn   nand.PPN
	valid bool
	off   int // next append offset
	used  int // partial programs issued (NOP budget consumed)
}

// WriteDelta appends a page differential (a delta.Encode payload) for
// lpn instead of programming a full page. The payload must describe the
// change relative to the page's current logical contents. When the
// page's chain reaches maxDeltaChain the volume folds chain and payload
// into a fresh full-page write instead.
func (v *Volume) WriteDelta(rq ioreq.Req, lpn int64, payload []byte) error {
	if err := v.check(lpn); err != nil {
		return err
	}
	return v.dies[v.st.DieOf(lpn)].writeDelta(rq.Waiter(), v.st.DieLPN(lpn), lpn, payload)
}

// ChainLen reports the page's current delta-chain length (0 when the
// page has a plain full image).
func (v *Volume) ChainLen(lpn int64) int {
	if v.check(lpn) != nil {
		return 0
	}
	return len(v.dies[v.st.DieOf(lpn)].chains[v.st.DieLPN(lpn)])
}

func (d *dieMgr) writeDelta(w sim.Waiter, dlpn, globalLPN int64, payload []byte) error {
	ps := d.sp.Geo().PageSize
	rec := deltaHeaderSize + len(payload)
	if rec > ps {
		return fmt.Errorf("%w: %d bytes in %d-byte page", ErrDeltaTooLarge, rec, ps)
	}
	if len(d.chains[dlpn]) >= maxDeltaChain {
		// Forced fold absorbs the incoming delta: one full-page write
		// replaces base + chain + payload.
		return d.foldChain(w, dlpn, payload, false)
	}
	for attempt := 0; ; attempt++ {
		if attempt > d.sp.Blocks() {
			return fmt.Errorf("%w: die %d cannot place a delta append", ftl.ErrGCStuck, d.sp.Die)
		}
		plane, ok := d.findOpenDelta(rec)
		if !ok {
			var err error
			plane, err = d.pickWritePlane(w)
			if err != nil {
				return err
			}
			ppn, aerr := d.allocPage(plane, &d.deltaFr[plane], kindDelta)
			if aerr != nil {
				continue
			}
			d.closeOpenDelta(plane)
			local, page := d.sp.LocalOfPPN(ppn)
			d.bt.SetOwner(local, page, deltaOwner)
			d.deltaPages[ppn] = &deltaPageInfo{}
			d.open[plane] = openDeltaPage{ppn: ppn, valid: true}
		}
		op := &d.open[plane]
		// Commit chain state synchronously, then submit the program (the
		// package convention: state transitions commit when the operation
		// is submitted; the Waiter only experiences time).
		d.seq++
		seq := d.seq
		off := op.off
		ref := chainRef{ppn: op.ppn, off: off, n: rec}
		d.chains[dlpn] = append(d.chains[dlpn], ref)
		info := d.deltaPages[op.ppn]
		info.live++
		info.residents = append(info.residents, dlpn)
		op.off += rec
		op.used++
		if op.used >= d.nop {
			d.closeOpenDelta(plane)
		}
		d.stats.DeltaWrites++
		d.stats.DeltaBytes += int64(rec)

		buf := encodeDeltaRecord(globalLPN, seq, payload)
		oob := nand.OOB{LPN: uint64(globalLPN), Seq: seq, Flags: oobDeltaFlag}
		perr := d.io.ProgramPartial(w, ref.ppn, off, buf, oob)
		if perr == nil {
			return nil
		}
		// Roll the append back; the record's bytes never reached flash.
		d.stats.DeltaWrites--
		d.stats.DeltaBytes -= int64(rec)
		d.dropRef(dlpn, ref)
		if !errors.Is(perr, nand.ErrBadBlock) {
			return perr
		}
		local, _ := d.sp.LocalOfPPN(ref.ppn)
		if err := d.retireAndSalvage(w, local); err != nil {
			return err
		}
	}
}

// findOpenDelta returns a plane whose open delta page can take a record
// of n bytes.
func (d *dieMgr) findOpenDelta(n int) (int, bool) {
	ps := d.sp.Geo().PageSize
	planes := d.sp.Planes()
	for i := 0; i < planes; i++ {
		plane := (d.rr + i) % planes
		op := &d.open[plane]
		if op.valid && op.used < d.nop && op.off+n <= ps {
			return plane, true
		}
	}
	return 0, false
}

// closeOpenDelta retires a plane's open delta page from the append path.
// If every record in it already died (all its chains folded), the slot
// is invalidated now — while open it had to stay valid so the appends'
// accounting stayed monotonic.
func (d *dieMgr) closeOpenDelta(plane int) {
	op := &d.open[plane]
	if !op.valid {
		return
	}
	op.valid = false
	if info := d.deltaPages[op.ppn]; info != nil && info.live == 0 {
		local, page := d.sp.LocalOfPPN(op.ppn)
		d.bt.Invalidate(local, page)
		delete(d.deltaPages, op.ppn)
	}
}

func (d *dieMgr) isOpenDelta(ppn nand.PPN) bool {
	for p := range d.open {
		if d.open[p].valid && d.open[p].ppn == ppn {
			return true
		}
	}
	return false
}

// dropRef removes one specific ref from a chain (append rollback).
func (d *dieMgr) dropRef(dlpn int64, ref chainRef) {
	chain := d.chains[dlpn]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i] == ref {
			d.unref(ref, dlpn)
			d.chains[dlpn] = append(chain[:i], chain[i+1:]...)
			if len(d.chains[dlpn]) == 0 {
				delete(d.chains, dlpn)
			}
			return
		}
	}
}

// dropRefs releases the first n refs of a page's chain (they were folded
// into a new base image or invalidated with the page).
func (d *dieMgr) dropRefs(dlpn int64, n int) {
	chain := d.chains[dlpn]
	if n > len(chain) {
		n = len(chain)
	}
	for _, ref := range chain[:n] {
		d.unref(ref, dlpn)
	}
	if rest := chain[n:]; len(rest) == 0 {
		delete(d.chains, dlpn)
	} else {
		d.chains[dlpn] = rest
	}
}

func (d *dieMgr) unref(ref chainRef, dlpn int64) {
	info := d.deltaPages[ref.ppn]
	if info == nil {
		return
	}
	info.live--
	for i, r := range info.residents {
		if r == dlpn {
			info.residents[i] = info.residents[len(info.residents)-1]
			info.residents = info.residents[:len(info.residents)-1]
			break
		}
	}
	if info.live == 0 && !d.isOpenDelta(ref.ppn) {
		local, page := d.sp.LocalOfPPN(ref.ppn)
		d.bt.Invalidate(local, page)
		delete(d.deltaPages, ref.ppn)
	}
}

func (d *dieMgr) statsRead(gcPath bool) {
	if gcPath {
		d.stats.GCReads++
	} else {
		d.stats.HostReads++
	}
}

// readFolded reads the page's base image into buf and applies its delta
// chain. Used by both the read path and folding.
func (d *dieMgr) readFolded(w sim.Waiter, dlpn int64, base nand.PPN, snap []chainRef, buf []byte, gcPath bool) error {
	if base != nand.InvalidPPN {
		d.statsRead(gcPath)
		if _, err := d.io.ReadPage(w, base, buf); err != nil && !errors.Is(err, nand.ErrPageErased) {
			return err
		}
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	if len(snap) == 0 {
		return nil
	}
	scratch := make([]byte, len(buf))
	last := nand.InvalidPPN
	for _, ref := range snap {
		if ref.ppn != last {
			d.statsRead(gcPath)
			if _, err := d.io.ReadPage(w, ref.ppn, scratch); err != nil && !errors.Is(err, nand.ErrPageErased) {
				return err
			}
			last = ref.ppn
		}
		if !d.storeData {
			continue // counting-only replay: no payloads to apply
		}
		lpn, _, payload, _, err := parseDeltaRecord(scratch[ref.off : ref.off+ref.n])
		if err != nil {
			return fmt.Errorf("noftl: die %d delta record at ppn %d+%d: %w", d.sp.Die, ref.ppn, ref.off, err)
		}
		if lpn != d.globalLPN(dlpn) {
			return fmt.Errorf("noftl: die %d delta record at ppn %d+%d owned by lpn %d, want %d",
				d.sp.Die, ref.ppn, ref.off, lpn, d.globalLPN(dlpn))
		}
		if err := delta.Apply(buf, payload); err != nil {
			return err
		}
	}
	return nil
}

// chainHasPrefix reports whether cur still starts with snap (no fold or
// invalidation consumed the snapshot while we waited on reads).
func chainHasPrefix(cur, snap []chainRef) bool {
	if len(cur) < len(snap) {
		return false
	}
	for i := range snap {
		if cur[i] != snap[i] {
			return false
		}
	}
	return true
}

// foldChain collapses a page's base image and delta chain (plus an
// optional incoming payload) into one fresh full-page program,
// invalidating the base and releasing the chain. On the GC path the
// write is charged as relocation work; on the host path as a host write.
func (d *dieMgr) foldChain(w sim.Waiter, dlpn int64, extra []byte, gcPath bool) error {
	ps := d.sp.Geo().PageSize
	buf := make([]byte, ps)
	for spins := 0; ; spins++ {
		if spins > 1<<12 {
			return fmt.Errorf("noftl: die %d fold of page %d cannot settle", d.sp.Die, dlpn)
		}
		base := d.l2p[dlpn]
		snap := append([]chainRef(nil), d.chains[dlpn]...)
		if len(snap) == 0 && extra == nil {
			return nil
		}
		if err := d.readFolded(w, dlpn, base, snap, buf, gcPath); err != nil {
			return err
		}
		// The reads waited; another process may have folded or rewritten
		// the page meanwhile. Revalidate before committing.
		if d.l2p[dlpn] != base || !chainHasPrefix(d.chains[dlpn], snap) {
			continue
		}
		if extra != nil && d.storeData {
			if err := delta.Apply(buf, extra); err != nil {
				return err
			}
		}
		plane := 0
		if base != nand.InvalidPPN {
			plane = d.sp.Geo().PlaneOf(base)
		}
		dst, dstPlane, aerr := d.allocRelocTarget(plane)
		if aerr != nil {
			if gcPath {
				return aerr
			}
			// Host path: make space (may run GC) and retry the fold.
			if _, err := d.pickWritePlane(w); err != nil {
				return err
			}
			continue
		}
		// Synchronous commit: new mapping, base and chain released.
		d.seq++
		oob := nand.OOB{LPN: uint64(d.globalLPN(dlpn)), Seq: d.seq}
		if base != nand.InvalidPPN {
			l, pg := d.sp.LocalOfPPN(base)
			d.bt.Invalidate(l, pg)
		}
		dl, dp := d.sp.LocalOfPPN(dst)
		d.bt.SetOwner(dl, dp, dlpn)
		d.l2p[dlpn] = dst
		d.dropRefs(dlpn, len(snap))
		d.stats.Folds++
		if gcPath {
			d.stats.GCWrites++
		} else {
			d.stats.HostWrites++
		}
		for {
			perr := d.io.ProgramPage(w, dst, buf, oob)
			if perr == nil {
				return nil
			}
			if gcPath {
				d.stats.GCWrites--
			} else {
				d.stats.HostWrites--
			}
			d.bt.Invalidate(dl, dp)
			d.l2p[dlpn] = nand.InvalidPPN
			if !errors.Is(perr, nand.ErrBadBlock) {
				return perr
			}
			if err := d.retireAndSalvage(w, dl); err != nil {
				return err
			}
			dst, dstPlane, aerr = d.allocRelocTarget(dstPlane)
			if aerr != nil {
				return aerr
			}
			d.seq++
			oob.Seq = d.seq
			dl, dp = d.sp.LocalOfPPN(dst)
			d.bt.SetOwner(dl, dp, dlpn)
			d.l2p[dlpn] = dst
			if gcPath {
				d.stats.GCWrites++
			} else {
				d.stats.HostWrites++
			}
		}
	}
}

// foldResidents folds every chain with a live record in the given
// physical delta page until the page holds no live records. GC calls it
// when a victim block contains delta pages: instead of relocating N
// stale versions it writes one folded image per affected logical page.
func (d *dieMgr) foldResidents(w sim.Waiter, local, page int) error {
	src := d.sp.PPN(local, page)
	for spins := 0; ; spins++ {
		if spins > 4*d.sp.PagesPerBlock()*d.nop {
			return fmt.Errorf("noftl: die %d delta page %d residents do not drain", d.sp.Die, src)
		}
		info := d.deltaPages[src]
		if info == nil || info.live == 0 {
			break
		}
		if err := d.foldChain(w, info.residents[0], nil, true); err != nil {
			return err
		}
	}
	// The page may still be someone's open frontier page (a frontier
	// block can age into a GC victim only when Used, but wear leveling
	// also collects blocks); make sure the slot dies with its records.
	for p := range d.open {
		if d.open[p].valid && d.open[p].ppn == src {
			d.closeOpenDelta(p)
		}
	}
	if d.deltaPages[src] == nil {
		d.bt.Invalidate(local, page)
	}
	return nil
}

// remapDeltaPage rewrites every chain ref from src to dst after a
// salvage relocation of a delta page (offsets within the page are
// preserved by the full-page copy).
func (d *dieMgr) remapDeltaPage(src, dst nand.PPN) {
	info := d.deltaPages[src]
	if info == nil {
		return
	}
	for _, dlpn := range info.residents {
		chain := d.chains[dlpn]
		for i := range chain {
			if chain[i].ppn == src {
				chain[i].ppn = dst
			}
		}
	}
	delete(d.deltaPages, src)
	d.deltaPages[dst] = info
}
