// Package nand models raw NAND flash: geometry, the page/block state
// machine (erase-before-program, in-order programming within a block),
// cell-type timing profiles, wear, bad blocks, out-of-band metadata and
// same-plane copyback.
//
// The package is purely functional state — no notion of time. Timing and
// queueing live in package flash, which layers the device emulator's
// channel/die timelines over an Array.
package nand

import "fmt"

// PPN is a physical page number, linear across the whole device.
// Layout: ((die*PlanesPerDie+plane)*BlocksPerPlane+block)*PagesPerBlock+page.
type PPN int64

// PBN is a physical block number, linear across the whole device:
// PBN = PPN / PagesPerBlock.
type PBN int64

// InvalidPPN marks an unmapped physical page.
const InvalidPPN PPN = -1

// Geometry describes the physical architecture of a flash device.
type Geometry struct {
	Channels        int // independent buses to the host controller
	ChipsPerChannel int // NAND packages (LUN groups) per channel
	DiesPerChip     int // independently operating dies per chip
	PlanesPerDie    int // planes per die (copyback works within a plane)
	BlocksPerPlane  int // erase blocks per plane
	PagesPerBlock   int // pages per erase block
	PageSize        int // user-data bytes per page
	OOBSize         int // out-of-band (spare) bytes per page, metadata only
}

// Validate reports whether every field is positive and consistent.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("nand: geometry field %s = %d, must be > 0", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"ChipsPerChannel", g.ChipsPerChannel},
		{"DiesPerChip", g.DiesPerChip},
		{"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlane", g.BlocksPerPlane},
		{"PagesPerBlock", g.PagesPerBlock},
		{"PageSize", g.PageSize},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if g.OOBSize < 0 {
		return fmt.Errorf("nand: OOBSize = %d, must be >= 0", g.OOBSize)
	}
	return nil
}

// Dies returns the total number of independently operating dies.
func (g Geometry) Dies() int { return g.Channels * g.ChipsPerChannel * g.DiesPerChip }

// BlocksPerDie returns the number of erase blocks per die.
func (g Geometry) BlocksPerDie() int { return g.PlanesPerDie * g.BlocksPerPlane }

// PagesPerDie returns the number of pages per die.
func (g Geometry) PagesPerDie() int { return g.BlocksPerDie() * g.PagesPerBlock }

// TotalBlocks returns the number of erase blocks in the device.
func (g Geometry) TotalBlocks() int { return g.Dies() * g.BlocksPerDie() }

// TotalPages returns the number of pages in the device.
func (g Geometry) TotalPages() int64 { return int64(g.Dies()) * int64(g.PagesPerDie()) }

// TotalBytes returns the raw user-data capacity in bytes.
func (g Geometry) TotalBytes() int64 { return g.TotalPages() * int64(g.PageSize) }

// ChannelOfDie maps a die index to its channel. Dies are assigned to
// channels round-robin so that consecutive die numbers land on different
// buses, which is how SSDs interleave for bus parallelism.
func (g Geometry) ChannelOfDie(die int) int { return die % g.Channels }

// PBNOf composes a physical block number from its coordinates.
func (g Geometry) PBNOf(die, plane, block int) PBN {
	return PBN((int64(die)*int64(g.PlanesPerDie)+int64(plane))*int64(g.BlocksPerPlane) +
		int64(block))
}

// BlockOf returns the block containing a page.
func (g Geometry) BlockOf(p PPN) PBN { return PBN(int64(p) / int64(g.PagesPerBlock)) }

// PageIndex returns the page's index within its block.
func (g Geometry) PageIndex(p PPN) int { return int(int64(p) % int64(g.PagesPerBlock)) }

// FirstPage returns the first page of a block.
func (g Geometry) FirstPage(b PBN) PPN { return PPN(int64(b) * int64(g.PagesPerBlock)) }

// DieOfBlock returns the die containing a block.
func (g Geometry) DieOfBlock(b PBN) int {
	return int(int64(b) / int64(g.BlocksPerDie()))
}

// PlaneOfBlock returns the plane index (within its die) of a block.
func (g Geometry) PlaneOfBlock(b PBN) int {
	return int(int64(b)/int64(g.BlocksPerPlane)) % g.PlanesPerDie
}

// DieOf returns the die containing a page.
func (g Geometry) DieOf(p PPN) int { return g.DieOfBlock(g.BlockOf(p)) }

// PlaneOf returns the plane index (within its die) of a page.
func (g Geometry) PlaneOf(p PPN) int { return g.PlaneOfBlock(g.BlockOf(p)) }

// ValidPPN reports whether p addresses a page inside the device.
func (g Geometry) ValidPPN(p PPN) bool { return p >= 0 && int64(p) < g.TotalPages() }

// ValidPBN reports whether b addresses a block inside the device.
func (g Geometry) ValidPBN(b PBN) bool { return b >= 0 && int64(b) < int64(g.TotalBlocks()) }

// String summarises the geometry, e.g.
// "2ch×4chip×1die×2pl, 1024blk/pl × 128pg × 4096B (4.0 GiB)".
func (g Geometry) String() string {
	return fmt.Sprintf("%dch×%dchip×%ddie×%dpl, %dblk/pl × %dpg × %dB (%.1f GiB)",
		g.Channels, g.ChipsPerChannel, g.DiesPerChip, g.PlanesPerDie,
		g.BlocksPerPlane, g.PagesPerBlock, g.PageSize,
		float64(g.TotalBytes())/(1<<30))
}
