package nand

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
)

// Errors returned by Array operations.
var (
	ErrBadAddress   = errors.New("nand: address out of range")
	ErrBadBlock     = errors.New("nand: block is marked bad")
	ErrNotErased    = errors.New("nand: program target page is not erased")
	ErrProgramOrder = errors.New("nand: pages must be programmed in order within a block")
	ErrPageErased   = errors.New("nand: page is erased (reads as 0xFF)")
	ErrCrossPlane   = errors.New("nand: copyback source and target must share a plane")
	ErrWornOut      = errors.New("nand: block exceeded its erase endurance")
	ErrDataSize     = errors.New("nand: data length does not match page size")
	ErrPartialNOP   = errors.New("nand: page exhausted its partial-program budget")
	ErrPartialOrder = errors.New("nand: partial program must not overwrite programmed bytes")
)

// OOB is the out-of-band (spare area) metadata programmed with a page.
// FTLs use it to rebuild mapping tables after power loss.
type OOB struct {
	LPN   uint64 // logical page the data belongs to
	Seq   uint64 // monotonically increasing write sequence number
	Flags uint32 // owner-defined bits (e.g. translation-page marker)
}

// PageState is the physical condition of a page.
type PageState uint8

// Page states.
const (
	PageErased     PageState = iota // never programmed since last erase
	PageProgrammed                  // holds data
)

type blockState struct {
	eraseCount int
	nextPage   int // in-order programming cursor
	bad        bool
	programmed []bool // len PagesPerBlock, lazily allocated
	oob        []OOB  // lazily allocated
	data       [][]byte
	// Partial-page programming (NOP) bookkeeping: programs issued per
	// page and the append-only high-water offset of programmed bytes.
	partials []uint8
	high     []int
}

// Options configures failure injection and storage behaviour of an Array.
type Options struct {
	// StoreData keeps page contents in memory. Disable for counting-only
	// replays (metadata, wear and OOB are still tracked).
	StoreData bool
	// InitialBadFraction marks roughly this fraction of blocks factory-bad.
	InitialBadFraction float64
	// ProgramFailProb is the per-program probability of a failure that
	// retires the block (grown bad block).
	ProgramFailProb float64
	// EraseFailProb is the per-erase probability of a failure that retires
	// the block.
	//noftl:ignore setter fault injection: only tests provoke the fault
	EraseFailProb float64
	// Endurance overrides the cell type's erase budget; 0 keeps the default.
	// Blocks erased beyond the budget wear out and become bad.
	//noftl:ignore setter fault injection: only tests provoke the fault
	Endurance int
	// Seed drives factory bad-block placement and failure injection.
	Seed int64
}

// Array is a raw NAND flash array: pure state, no timing. It enforces the
// physical rules real NAND imposes: erase-before-program, strictly
// in-order page programming inside a block, and same-plane copyback.
type Array struct {
	geo       Geometry
	opts      Options
	endurance int
	blocks    []blockState
	// freePages holds the page images of erased blocks for the next
	// program to reuse. Every image on it was held by a programmed page
	// until its last holder's block was erased, so free plus held images
	// never exceed the peak number of simultaneously programmed pages (at
	// most the drive's capacity) and the list needs no bound of its own.
	freePages [][]byte
	// shared links the pages holding one image, a copyback's source and
	// its targets, into a ring: shared[p] is the next holder after p plus
	// one, 0 when p holds its image alone (nil when no data is stored).
	shared []PPN
	rng    *rand.Rand

	totalReads    int64
	totalPrograms int64
	totalPartials int64
	programBytes  int64

	totalErases    int64
	totalCopybacks int64
	grownBad       int
	factoryBad     int
}

// NewArray builds a pristine array. It panics if the geometry is invalid
// (geometry is a programming-time constant, not runtime input).
func NewArray(geo Geometry, cell CellType, opts Options) *Array {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	a := &Array{
		geo:       geo,
		opts:      opts,
		endurance: opts.Endurance,
		blocks:    make([]blockState, geo.TotalBlocks()),
		rng:       rand.New(rand.NewSource(opts.Seed)),
	}
	if a.endurance == 0 {
		a.endurance = cell.Endurance()
	}
	if opts.StoreData {
		a.shared = make([]PPN, geo.TotalPages())
	}
	if opts.InitialBadFraction > 0 {
		for i := range a.blocks {
			if a.rng.Float64() < opts.InitialBadFraction {
				a.blocks[i].bad = true
				a.factoryBad++
			}
		}
	}
	return a
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Endurance returns the per-block erase budget in effect.
func (a *Array) Endurance() int { return a.endurance }

// maxPartialPrograms (NOP) is how many times a page may be programmed
// between erases via ProgramPartial. Real NAND allows a handful of partial
// programs per page (datasheet NOP, 4–8 on SLC, fewer on denser cells);
// hosts use them to append small records — the in-place-append pattern
// NoFTL's delta-write path relies on.
const maxPartialPrograms = 4

// MaxPartialPrograms returns the per-page partial-program budget (NOP).
func (a *Array) MaxPartialPrograms() int { return maxPartialPrograms }

// StoresData reports whether the array keeps page contents (false for
// counting-only replays).
func (a *Array) StoresData() bool { return a.opts.StoreData }

func (a *Array) block(b PBN) *blockState { return &a.blocks[int(b)] }

// pageBuf returns a page-sized buffer with unspecified contents: the most
// recently erased page's when one is free, a new one otherwise.
func (a *Array) pageBuf() []byte {
	if n := len(a.freePages); n > 0 {
		d := a.freePages[n-1]
		a.freePages = a.freePages[:n-1]
		return d
	}
	return make([]byte, a.geo.PageSize)
}

// release drops page p's hold on its image d: the last holder puts d on
// the free list, any other leaves the ring of d's holders.
func (a *Array) release(p PPN, d []byte) {
	if a.shared[p] == 0 {
		a.freePages = append(a.freePages, d)
		return
	}
	q := p // p's predecessor on the ring
	for a.shared[q] != p+1 {
		q = a.shared[q] - 1
	}
	a.shared[q], a.shared[p] = a.shared[p], 0
	if a.shared[q] == q+1 { // q is left holding d alone
		a.shared[q] = 0
	}
}

// ensure allocates the lazy per-page slices of a block.
func (a *Array) ensure(bs *blockState) {
	if bs.programmed == nil {
		bs.programmed = make([]bool, a.geo.PagesPerBlock)
		bs.oob = make([]OOB, a.geo.PagesPerBlock)
		bs.partials = make([]uint8, a.geo.PagesPerBlock)
		bs.high = make([]int, a.geo.PagesPerBlock)
		if a.opts.StoreData {
			bs.data = make([][]byte, a.geo.PagesPerBlock)
		}
	}
}

// ReadPage copies the page's data into buf (if the array stores data and
// buf is non-nil) and returns its OOB. Reading an erased page returns
// ErrPageErased, mirroring the all-0xFF pattern real NAND returns.
func (a *Array) ReadPage(p PPN, buf []byte) (OOB, error) {
	if !a.geo.ValidPPN(p) {
		return OOB{}, fmt.Errorf("%w: ppn %d", ErrBadAddress, p)
	}
	// Reads from bad blocks are allowed: a grown-bad block keeps its data
	// readable so the bad-block manager can salvage it before retiring.
	bs := a.block(a.geo.BlockOf(p))
	a.totalReads++
	idx := a.geo.PageIndex(p)
	if bs.programmed == nil || !bs.programmed[idx] {
		return OOB{}, ErrPageErased
	}
	if buf != nil && a.opts.StoreData {
		if len(buf) != a.geo.PageSize {
			return OOB{}, fmt.Errorf("%w: buf %d, page %d", ErrDataSize, len(buf), a.geo.PageSize)
		}
		if d := bs.data[idx]; d != nil {
			copy(buf, d)
		} else {
			clear(buf)
		}
	}
	return bs.oob[idx], nil
}

// ProgramPage writes data and OOB to an erased page. Pages inside a block
// must be programmed in ascending order. A ProgramFailProb failure retires
// the block and returns ErrBadBlock; the caller (FTL/BBM) must remap.
// data is copied before ProgramPage returns; the caller may reuse it at
// once. A nil data stores no buffer and the page reads back as zeros.
func (a *Array) ProgramPage(p PPN, data []byte, oob OOB) error {
	if !a.geo.ValidPPN(p) {
		return fmt.Errorf("%w: ppn %d", ErrBadAddress, p)
	}
	b := a.geo.BlockOf(p)
	bs := a.block(b)
	if bs.bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, b)
	}
	idx := a.geo.PageIndex(p)
	a.ensure(bs)
	if bs.programmed[idx] {
		return fmt.Errorf("%w: ppn %d", ErrNotErased, p)
	}
	if idx != bs.nextPage {
		return fmt.Errorf("%w: ppn %d is page %d, next programmable is %d",
			ErrProgramOrder, p, idx, bs.nextPage)
	}
	if a.opts.StoreData {
		if data != nil && len(data) != a.geo.PageSize {
			return fmt.Errorf("%w: data %d, page %d", ErrDataSize, len(data), a.geo.PageSize)
		}
	}
	if a.opts.ProgramFailProb > 0 && a.rng.Float64() < a.opts.ProgramFailProb {
		bs.bad = true
		a.grownBad++
		return fmt.Errorf("%w: program failure on block %d", ErrBadBlock, b)
	}
	a.totalPrograms++
	a.programBytes += int64(a.geo.PageSize)
	bs.programmed[idx] = true
	bs.nextPage = idx + 1
	bs.oob[idx] = oob
	bs.partials[idx] = 1
	bs.high[idx] = a.geo.PageSize // full program closes the page to appends
	if a.opts.StoreData && data != nil {
		d := a.pageBuf()
		copy(d, data)
		bs.data[idx] = d
	}
	return nil
}

// ProgramPartial programs only data's bytes at offset off of the page,
// modeling NAND partial-page programming (NOP): a page may be programmed
// up to MaxPartialPrograms times between erases, each program touching a
// byte range strictly after the previously programmed bytes (append-only
// within the page). The first partial program of a page must respect the
// block's in-order rule; subsequent appends to an already-open page are
// allowed at any time. A full ProgramPage closes the page to appends.
//
// OOB is stored on the first program of the page only (the spare area,
// like the data area, cannot be reprogrammed); later appends must be
// self-describing in their payload.
func (a *Array) ProgramPartial(p PPN, off int, data []byte, oob OOB) error {
	if !a.geo.ValidPPN(p) {
		return fmt.Errorf("%w: ppn %d", ErrBadAddress, p)
	}
	if off < 0 || len(data) == 0 || off+len(data) > a.geo.PageSize {
		return fmt.Errorf("%w: partial [%d,%d) in %d-byte page",
			ErrDataSize, off, off+len(data), a.geo.PageSize)
	}
	b := a.geo.BlockOf(p)
	bs := a.block(b)
	if bs.bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, b)
	}
	idx := a.geo.PageIndex(p)
	a.ensure(bs)
	if bs.programmed[idx] {
		if int(bs.partials[idx]) >= maxPartialPrograms {
			return fmt.Errorf("%w: ppn %d after %d programs", ErrPartialNOP, p, bs.partials[idx])
		}
		if off < bs.high[idx] {
			return fmt.Errorf("%w: ppn %d offset %d below high-water %d",
				ErrPartialOrder, p, off, bs.high[idx])
		}
	} else if idx != bs.nextPage {
		return fmt.Errorf("%w: ppn %d is page %d, next programmable is %d",
			ErrProgramOrder, p, idx, bs.nextPage)
	}
	if a.opts.ProgramFailProb > 0 && a.rng.Float64() < a.opts.ProgramFailProb {
		bs.bad = true
		a.grownBad++
		return fmt.Errorf("%w: partial program failure on block %d", ErrBadBlock, b)
	}
	a.totalPartials++
	a.programBytes += int64(len(data))
	if !bs.programmed[idx] {
		bs.programmed[idx] = true
		bs.nextPage = idx + 1
		bs.oob[idx] = oob
	}
	bs.partials[idx]++
	bs.high[idx] = off + len(data)
	if a.opts.StoreData {
		switch d := bs.data[idx]; {
		case d == nil:
			// Unprogrammed bytes of the page read as 0.
			bs.data[idx] = a.pageBuf()
			clear(bs.data[idx])
		case a.shared[p] != 0:
			// A copyback shared this image: the append must not show
			// through the other holders.
			bs.data[idx] = a.pageBuf()
			copy(bs.data[idx], d)
			a.release(p, d)
		}
		copy(bs.data[idx][off:], data)
	}
	return nil
}

// EraseBlock erases a block, incrementing its wear counter. Exceeding the
// endurance budget (or an injected failure) retires the block.
func (a *Array) EraseBlock(b PBN) error {
	if !a.geo.ValidPBN(b) {
		return fmt.Errorf("%w: pbn %d", ErrBadAddress, b)
	}
	bs := a.block(b)
	if bs.bad {
		return fmt.Errorf("%w: block %d", ErrBadBlock, b)
	}
	if a.opts.EraseFailProb > 0 && a.rng.Float64() < a.opts.EraseFailProb {
		bs.bad = true
		a.grownBad++
		return fmt.Errorf("%w: erase failure on block %d", ErrBadBlock, b)
	}
	a.totalErases++
	bs.eraseCount++
	bs.nextPage = 0
	if bs.programmed != nil {
		for i := range bs.programmed {
			bs.programmed[i] = false
			bs.oob[i] = OOB{}
			bs.partials[i] = 0
			bs.high[i] = 0
			if bs.data != nil && bs.data[i] != nil {
				a.release(a.geo.FirstPage(b)+PPN(i), bs.data[i])
				bs.data[i] = nil
			}
		}
	}
	if bs.eraseCount > a.endurance {
		bs.bad = true
		a.grownBad++
		return fmt.Errorf("%w: block %d after %d erases", ErrWornOut, b, bs.eraseCount)
	}
	return nil
}

// Copyback moves a programmed page to an erased page in the same plane
// without the data crossing the channel bus. oob replaces the source's
// OOB (controllers may modify the register before program). The target
// must respect the in-order programming rule. A page's bytes cannot
// change until its block is erased, so the target shares the source's
// image instead of copying it.
func (a *Array) Copyback(src, dst PPN, oob OOB) error {
	if !a.geo.ValidPPN(src) || !a.geo.ValidPPN(dst) {
		return fmt.Errorf("%w: src %d dst %d", ErrBadAddress, src, dst)
	}
	if a.geo.DieOf(src) != a.geo.DieOf(dst) || a.geo.PlaneOf(src) != a.geo.PlaneOf(dst) {
		return fmt.Errorf("%w: src die %d plane %d, dst die %d plane %d", ErrCrossPlane,
			a.geo.DieOf(src), a.geo.PlaneOf(src), a.geo.DieOf(dst), a.geo.PlaneOf(dst))
	}
	sb := a.block(a.geo.BlockOf(src))
	if sb.bad {
		return fmt.Errorf("%w: source block %d", ErrBadBlock, a.geo.BlockOf(src))
	}
	sidx := a.geo.PageIndex(src)
	if sb.programmed == nil || !sb.programmed[sidx] {
		return ErrPageErased
	}
	// Account the internal read+program as a single copyback, not as a
	// host read and program (and no channel bytes: the data never leaves
	// the die).
	reads, progs, pbytes := a.totalReads, a.totalPrograms, a.programBytes
	err := a.ProgramPage(dst, nil, oob)
	a.totalReads, a.totalPrograms, a.programBytes = reads, progs, pbytes
	if err != nil {
		return err
	}
	a.totalCopybacks++
	if sb.data != nil && sb.data[sidx] != nil {
		a.block(a.geo.BlockOf(dst)).data[a.geo.PageIndex(dst)] = sb.data[sidx]
		// dst joins the ring after src; a lone src counts as its own next.
		a.shared[src], a.shared[dst] = dst+1, cmp.Or(a.shared[src], src+1)
	}
	return nil
}

// PageState reports whether a page is erased or programmed.
func (a *Array) PageState(p PPN) (PageState, error) {
	if !a.geo.ValidPPN(p) {
		return PageErased, fmt.Errorf("%w: ppn %d", ErrBadAddress, p)
	}
	bs := a.block(a.geo.BlockOf(p))
	idx := a.geo.PageIndex(p)
	if bs.programmed == nil || !bs.programmed[idx] {
		return PageErased, nil
	}
	return PageProgrammed, nil
}

// NextProgramPage returns the index of the next programmable page in the
// block (PagesPerBlock when the block is full).
func (a *Array) NextProgramPage(b PBN) int { return a.block(b).nextPage }

// EraseCount returns the block's wear counter.
func (a *Array) EraseCount(b PBN) int { return a.block(b).eraseCount }

// IsBad reports whether the block is retired (factory or grown bad).
func (a *Array) IsBad(b PBN) bool { return a.block(b).bad }

// Counters is a snapshot of the array's lifetime operation counts.
type Counters struct {
	Reads           int64
	Programs        int64
	PartialPrograms int64
	ProgramBytes    int64 // bytes crossing the channel into cells (full + partial)
	Erases          int64
	Copybacks       int64
	FactoryBad      int
	GrownBad        int
}

// Counters returns lifetime operation counts.
func (a *Array) Counters() Counters {
	return Counters{
		Reads:           a.totalReads,
		Programs:        a.totalPrograms,
		PartialPrograms: a.totalPartials,
		ProgramBytes:    a.programBytes,
		Erases:          a.totalErases,
		Copybacks:       a.totalCopybacks,
		FactoryBad:      a.factoryBad,
		GrownBad:        a.grownBad,
	}
}

// WearStats summarises the wear distribution over non-bad blocks.
type WearStats struct {
	Min, Max   int
	Mean       float64
	TotalBlock int
}

// Wear computes the wear distribution across the usable blocks of the
// given dies, or of the whole array when no die is given. With no usable
// block every field is zero.
func (a *Array) Wear(dies ...int) WearStats {
	ws := WearStats{Min: int(^uint(0) >> 1)}
	var sum int64
	add := func(blocks []blockState) {
		for i := range blocks {
			bs := &blocks[i]
			if bs.bad {
				continue
			}
			ws.TotalBlock++
			ws.Min = min(ws.Min, bs.eraseCount)
			ws.Max = max(ws.Max, bs.eraseCount)
			sum += int64(bs.eraseCount)
		}
	}
	if len(dies) == 0 {
		add(a.blocks)
	}
	per := a.geo.BlocksPerDie()
	for _, die := range dies {
		add(a.blocks[die*per : (die+1)*per])
	}
	if ws.TotalBlock == 0 {
		ws.Min = 0
		return ws
	}
	ws.Mean = float64(sum) / float64(ws.TotalBlock)
	return ws
}

// DieWear returns one erase count per block of the die, in physical
// block order (a wear-heatmap row). Retired blocks report -1 so
// consumers can render them distinctly from pristine blocks.
func (a *Array) DieWear(die int) []int {
	per := a.geo.BlocksPerDie()
	out := make([]int, per)
	base := int64(die) * int64(per)
	for i := 0; i < per; i++ {
		bs := a.block(PBN(base + int64(i)))
		if bs.bad {
			out[i] = -1
			continue
		}
		out[i] = bs.eraseCount
	}
	return out
}

// DieBadBlocks counts retired (factory or grown bad) blocks on a die.
func (a *Array) DieBadBlocks(die int) int {
	per := a.geo.BlocksPerDie()
	base := int64(die) * int64(per)
	n := 0
	for i := 0; i < per; i++ {
		if a.block(PBN(base + int64(i))).bad {
			n++
		}
	}
	return n
}
