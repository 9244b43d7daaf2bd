package ftl

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/nand"
)

// DieSpace is a view of one die of a flash device, addressing its blocks
// with a die-local index 0..BlocksPerDie-1 (plane-major order: block b
// lives in plane b / BlocksPerPlane).
type DieSpace struct {
	Dev *flash.Device
	Die int
	geo nand.Geometry
}

// NewDieSpace binds die number die of dev.
func NewDieSpace(dev *flash.Device, die int) DieSpace {
	return DieSpace{Dev: dev, Die: die, geo: dev.Geometry()}
}

// Geo returns the device geometry.
func (s DieSpace) Geo() nand.Geometry { return s.geo }

// Blocks returns the number of blocks in the die.
func (s DieSpace) Blocks() int { return s.geo.BlocksPerDie() }

// Planes returns the number of planes in the die.
func (s DieSpace) Planes() int { return s.geo.PlanesPerDie }

// PagesPerBlock returns pages per erase block.
func (s DieSpace) PagesPerBlock() int { return s.geo.PagesPerBlock }

// PlaneOf returns the plane of a die-local block index.
func (s DieSpace) PlaneOf(local int) int { return local / s.geo.BlocksPerPlane }

// PBN converts a die-local block index to the device-global block number.
func (s DieSpace) PBN(local int) nand.PBN {
	plane := local / s.geo.BlocksPerPlane
	idx := local % s.geo.BlocksPerPlane
	return s.geo.PBNOf(s.Die, plane, idx)
}

// Local converts a device-global block number back to the die-local index.
func (s DieSpace) Local(b nand.PBN) int {
	plane := s.geo.PlaneOfBlock(b)
	idx := int(int64(b) % int64(s.geo.BlocksPerPlane))
	return plane*s.geo.BlocksPerPlane + idx
}

// PPN returns the global physical page number of page `page` in die-local
// block `local`.
func (s DieSpace) PPN(local, page int) nand.PPN {
	return s.geo.FirstPage(s.PBN(local)) + nand.PPN(page)
}

// LocalOfPPN returns (die-local block, page index) of a global PPN that
// must belong to this die.
func (s DieSpace) LocalOfPPN(p nand.PPN) (local, page int) {
	return s.Local(s.geo.BlockOf(p)), s.geo.PageIndex(p)
}

// BlockState is the lifecycle state of a block within an FTL.
type BlockState uint8

// Block lifecycle states.
const (
	BlockFree     BlockState = iota // erased, in the free pool
	BlockFrontier                   // currently receiving programs
	BlockUsed                       // full (or retired frontier), GC candidate
	BlockBad                        // unusable
)

// NoOwner marks an invalid page slot in BlockInfo.Owners.
const NoOwner int64 = -1

// BlockInfo is an FTL's bookkeeping for one block.
type BlockInfo struct {
	State BlockState
	Kind  uint8 // FTL-specific block role (data/log/translation/...)
	Valid int   // number of valid pages
	// Owners[i] identifies the logical owner of page i (an LPN, a
	// translation-page number, ...); NoOwner means invalid/unwritten.
	Owners []int64
	// Seq is the allocation sequence, used for age-based victim policies
	// and round-robin log ordering.
	Seq uint64
}

// BlockTable tracks every block of one die plus per-plane free pools.
type BlockTable struct {
	sp        DieSpace
	Info      []BlockInfo
	free      [][]int // per plane FIFO of free local block ids
	allocSeq  uint64
	usable    int
	formatted int
}

// NewBlockTable scans the die and builds the table, excluding bad blocks.
func NewBlockTable(sp DieSpace) *BlockTable {
	t := &BlockTable{
		sp:   sp,
		Info: make([]BlockInfo, sp.Blocks()),
		free: make([][]int, sp.Planes()),
	}
	arr := sp.Dev.Array()
	for b := 0; b < sp.Blocks(); b++ {
		info := &t.Info[b]
		info.Owners = make([]int64, sp.PagesPerBlock())
		for i := range info.Owners {
			info.Owners[i] = NoOwner
		}
		if !arr.IsFactoryBad(sp.PBN(b)) {
			t.formatted++
		}
		if arr.IsBad(sp.PBN(b)) {
			info.State = BlockBad
			continue
		}
		info.State = BlockFree
		t.free[sp.PlaneOf(b)] = append(t.free[sp.PlaneOf(b)], b)
		t.usable++
	}
	return t
}

// Usable returns the number of non-bad blocks.
func (t *BlockTable) Usable() int { return t.usable }

// Formatted returns the number of blocks that were not bad from the
// factory: the die's size whatever has grown bad since.
func (t *BlockTable) Formatted() int { return t.formatted }

// FreeCount returns the number of free blocks in a plane.
func (t *BlockTable) FreeCount(plane int) int { return len(t.free[plane]) }

// AllocFree pops a free block from the plane (FIFO), marking it a
// frontier of the given kind. ok=false when the plane has none.
func (t *BlockTable) AllocFree(plane int, kind uint8) (local int, ok bool) {
	f := t.free[plane]
	if len(f) == 0 {
		return 0, false
	}
	local = f[0]
	t.free[plane] = f[1:]
	info := &t.Info[local]
	t.allocSeq++
	info.State = BlockFrontier
	info.Kind = kind
	info.Seq = t.allocSeq
	info.Valid = 0
	for i := range info.Owners {
		info.Owners[i] = NoOwner
	}
	return local, true
}

// TakeFree removes a specific block from its plane's free pool and marks
// it Used (a rebuild scan found programmed pages in it). ok=false when
// the block is not in the pool.
func (t *BlockTable) TakeFree(plane, local int) (int, bool) {
	f := t.free[plane]
	for i, b := range f {
		if b == local {
			t.free[plane] = append(f[:i], f[i+1:]...)
			t.allocSeq++
			t.Info[local].State = BlockUsed
			t.Info[local].Seq = t.allocSeq
			return local, true
		}
	}
	return 0, false
}

// Release returns an erased block to its plane's free pool.
func (t *BlockTable) Release(local int) {
	info := &t.Info[local]
	info.State = BlockFree
	info.Valid = 0
	for i := range info.Owners {
		info.Owners[i] = NoOwner
	}
	t.free[t.sp.PlaneOf(local)] = append(t.free[t.sp.PlaneOf(local)], local)
}

// Retire marks a block bad and removes it from circulation.
func (t *BlockTable) Retire(local int) {
	info := &t.Info[local]
	if info.State == BlockBad {
		return
	}
	if info.State == BlockFree {
		plane := t.sp.PlaneOf(local)
		f := t.free[plane]
		for i, b := range f {
			if b == local {
				t.free[plane] = append(f[:i], f[i+1:]...)
				break
			}
		}
	}
	info.State = BlockBad
	t.usable--
}

// SetOwner records page `page` of block `local` as the valid version of
// owner key.
func (t *BlockTable) SetOwner(local, page int, key int64) {
	info := &t.Info[local]
	if info.Owners[page] != NoOwner {
		panic(fmt.Sprintf("ftl: page %d/%d already owned", local, page))
	}
	info.Owners[page] = key
	info.Valid++
}

// Invalidate clears page `page` of block `local`; it is a no-op if the
// slot is already invalid.
func (t *BlockTable) Invalidate(local, page int) {
	info := &t.Info[local]
	if info.Owners[page] == NoOwner {
		return
	}
	info.Owners[page] = NoOwner
	info.Valid--
}

// MarkFull transitions a filled frontier block to the Used state.
func (t *BlockTable) MarkFull(local int) {
	if t.Info[local].State == BlockFrontier {
		t.Info[local].State = BlockUsed
	}
}

// GCPolicy selects GC victims.
type GCPolicy int

// Victim-selection policies.
const (
	// GreedyPolicy picks the used block with the fewest valid pages.
	GreedyPolicy GCPolicy = iota
	// CostBenefitPolicy weighs reclaimed space against copy cost and age
	// ((1-u)/(2u) * age, Rosenblum-style).
	CostBenefitPolicy
	// WearAwarePolicy is greedy with a penalty on high-wear blocks.
	WearAwarePolicy
)

// String names the policy.
func (p GCPolicy) String() string {
	switch p {
	case GreedyPolicy:
		return "greedy"
	case CostBenefitPolicy:
		return "cost-benefit"
	case WearAwarePolicy:
		return "wear-aware"
	default:
		return fmt.Sprintf("GCPolicy(%d)", int(p))
	}
}

// PickVictim returns the best GC victim in the plane among Used blocks of
// the given kind (kind 255 matches any), or ok=false if none exists.
// Blocks that are completely valid are still eligible (the caller decides
// whether relocating them is worthwhile).
func (t *BlockTable) PickVictim(plane int, kind uint8, policy GCPolicy) (local int, ok bool) {
	arr := t.sp.Dev.Array()
	ppb := float64(t.sp.PagesPerBlock())
	best := -1
	var bestScore float64
	start := plane * t.sp.Geo().BlocksPerPlane
	end := start + t.sp.Geo().BlocksPerPlane
	for b := start; b < end; b++ {
		info := &t.Info[b]
		if info.State != BlockUsed || (kind != AnyKind && info.Kind != kind) {
			continue
		}
		var score float64
		switch policy {
		case CostBenefitPolicy:
			u := float64(info.Valid) / ppb
			age := float64(t.allocSeq - info.Seq + 1)
			if u >= 1 {
				score = 0
			} else {
				score = (1 - u) / (2 * u * inverseAge(age))
			}
			// higher is better for cost-benefit; invert for the shared
			// "lower is better" comparison below
			score = -score
		case WearAwarePolicy:
			wear := float64(arr.EraseCount(t.sp.PBN(b)))
			score = float64(info.Valid) + wear*0.5
		default: // greedy
			score = float64(info.Valid)
		}
		if best == -1 || score < bestScore {
			best, bestScore = b, score
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

// AnyKind matches every block kind in PickVictim.
const AnyKind uint8 = 255

func inverseAge(age float64) float64 {
	if age <= 0 {
		return 1
	}
	return 1 / age
}

// Frontier is a write cursor inside one block.
type Frontier struct {
	Block int // die-local block id, -1 when unset
	Next  int // next page index
}

// NewFrontier returns an unset frontier.
func NewFrontier() Frontier { return Frontier{Block: -1} }

// Full reports whether the frontier has no room (or is unset).
func (f *Frontier) Full(ppb int) bool { return f.Block < 0 || f.Next >= ppb }
