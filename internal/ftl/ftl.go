// Package ftl holds what the flash-management schemes share — the FTL
// interface and its counters, die-wise striping, and the die, block and
// frontier bookkeeping — plus the one comparison FTL with a mapping of
// its own, FASTer (hybrid log-block mapping with second-chance
// recycling), and SeqLog, the block-granular sequential mapper of native
// log regions. The two page-mapped comparison FTLs are configured here
// (PageFTLConfig, DFTLConfig) but built in package noftl, on its die
// manager: pure page mapping is that manager with its DBMS knowledge
// switched off (noftl.NewPageFTL), DFTL is pure page mapping with a
// bounded mapping cache (noftl.NewDFTL). All three run behind blockdev.
//
// Following OpenSSD firmware practice, every FTL manages each die (bank)
// independently; logical pages are striped over dies at page granularity.
// That keeps garbage-collection relocations inside a die where COPYBACK
// works, and gives natural die parallelism.
//
// All FTL state transitions commit synchronously when an operation is
// submitted to the device; the sim.Waiter only experiences time. This
// makes the structures safe for interleaving at wait points under the
// DES kernel.
package ftl

import (
	"errors"
	"fmt"

	"noftl/internal/sim"
)

// Errors returned by FTLs.
var (
	ErrOutOfRange = errors.New("ftl: logical page out of range")
	ErrGCStuck    = errors.New("ftl: garbage collection cannot reclaim space")
)

// FTL is a logical block device mapped onto native flash. Logical pages
// are PageSize-sized; LPNs run from 0 to LogicalPages-1.
type FTL interface {
	// Name identifies the scheme ("pagemap", "dftl", "faster").
	Name() string
	// LogicalPages is the exported logical capacity in pages.
	LogicalPages() int64
	// Read copies the logical page into buf (nil buf skips the copy but
	// still pays the I/O). Unwritten pages read as zeros at no cost.
	Read(w sim.Waiter, lpn int64, buf []byte) error
	// Write stores a new version of the logical page out-of-place.
	Write(w sim.Waiter, lpn int64, data []byte) error
	// Trim declares the page's contents dead. On-device FTLs behind a
	// legacy block interface never receive this call — that asymmetry is
	// one of the paper's core points — but the method exists so traces
	// can be replayed with and without the hint.
	Trim(w sim.Waiter, lpn int64) error
	// Stats returns cumulative FTL-level counters.
	Stats() Stats
}

// Stats counts FTL-level causes of flash traffic. Device-level totals
// (including per-die busy time) live in flash.Device.Stats.
type Stats struct {
	HostReads   int64 // data page reads on behalf of the host
	HostWrites  int64 // data page programs on behalf of the host
	GCCopybacks int64 // relocations done with COPYBACK
	GCReads     int64 // relocation reads over the bus (cross-plane)
	GCWrites    int64 // relocation programs over the bus (incl. merge fill)
	Erases      int64 // block erases (GC + merges + wear leveling)
	MapReads    int64 // translation-page reads (DFTL)
	MapWrites   int64 // translation-page programs (DFTL)
	Trims       int64
	// Merge breakdown (hybrid FTLs).
	SwitchMerges  int64
	PartialMerges int64
	FullMerges    int64
	WearMoves     int64 // relocations forced by static wear leveling
	// Delta-write path (NoFTL in-place appends).
	DeltaWrites int64 // page-differential appends on behalf of the host
	DeltaBytes  int64 // bytes programmed by those appends (incl. headers)
	Folds       int64 // delta chains folded into a full page image
}

// Add returns the element-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	s.HostReads += o.HostReads
	s.HostWrites += o.HostWrites
	s.GCCopybacks += o.GCCopybacks
	s.GCReads += o.GCReads
	s.GCWrites += o.GCWrites
	s.Erases += o.Erases
	s.MapReads += o.MapReads
	s.MapWrites += o.MapWrites
	s.Trims += o.Trims
	s.SwitchMerges += o.SwitchMerges
	s.PartialMerges += o.PartialMerges
	s.FullMerges += o.FullMerges
	s.WearMoves += o.WearMoves
	s.DeltaWrites += o.DeltaWrites
	s.DeltaBytes += o.DeltaBytes
	s.Folds += o.Folds
	return s
}

// WriteAmplification is total programs per host write (1.0 is ideal).
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.HostWrites+s.GCCopybacks+s.GCWrites+s.MapWrites) / float64(s.HostWrites)
}

// GCPages counts pages relocated by garbage collection (copyback plus
// bus copies).
func (s Stats) GCPages() int64 { return s.GCCopybacks + s.GCWrites }

// ValidCopyRatio is the fraction of each reclaimed block that was
// still live when GC erased it: relocated pages per erase over
// pages-per-block. 0 means blocks are fully dead at reclaim (ideal);
// values near 1 mean GC is shoveling mostly-live blocks.
func (s Stats) ValidCopyRatio(pagesPerBlock int) float64 {
	if s.Erases == 0 || pagesPerBlock <= 0 {
		return 0
	}
	return float64(s.GCPages()) / (float64(s.Erases) * float64(pagesPerBlock))
}

// String gives a one-line summary.
func (s Stats) String() string {
	out := fmt.Sprintf("hostR=%d hostW=%d copyback=%d gcR=%d gcW=%d erase=%d mapR=%d mapW=%d WA=%.2f",
		s.HostReads, s.HostWrites, s.GCCopybacks, s.GCReads, s.GCWrites, s.Erases,
		s.MapReads, s.MapWrites, s.WriteAmplification())
	if s.DeltaWrites > 0 {
		out += fmt.Sprintf(" deltaW=%d deltaB=%d folds=%d", s.DeltaWrites, s.DeltaBytes, s.Folds)
	}
	return out
}

// Striping maps global logical pages onto per-die managers at page
// granularity: die = lpn mod dies (die-wise striping, the layout both the
// paper's FTL and NoFTL setups use).
type Striping struct {
	Dies   int
	PerDie int64 // logical pages per die
}

// DieOf returns the die owning a global LPN.
func (st Striping) DieOf(lpn int64) int { return int(lpn % int64(st.Dies)) }

// DieLPN converts a global LPN to the die-local LPN.
func (st Striping) DieLPN(lpn int64) int64 { return lpn / int64(st.Dies) }

// Total returns the exported logical capacity.
func (st Striping) Total() int64 { return st.PerDie * int64(st.Dies) }

// checkRange validates a global LPN.
func (st Striping) checkRange(lpn int64) error {
	if lpn < 0 || lpn >= st.Total() {
		return fmt.Errorf("%w: lpn %d of %d", ErrOutOfRange, lpn, st.Total())
	}
	return nil
}

func zero(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
}
