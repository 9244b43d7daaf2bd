// Package region implements configurable flash regions: the die array
// is carved into named regions, each with its own die allocation, write
// frontier, mapping granularity and over-provisioning — plus
// an object-placement catalog that lets the storage engine declare where
// each object class lives ("WAL → log region, heaps and B+-trees → data
// region"). A Spec carries exactly those choices — name, dies, mapping,
// over-provisioning, background GC — and nothing else: every other volume
// or log parameter runs at its package default (greedy GC victims for a
// page-mapped region).
//
// This is the step of the NoFTL research line that turns "the DBMS
// manages flash" into "the DBMS manages each write stream on its own
// terms": uFLIP-style measurements show flash behaves radically
// differently under sequential appends than under random updates, so a
// single mapping/GC policy for every page leaves performance on the
// table. A sequential log region is block-mapped (one translation entry
// per erase block) and reclaims space by truncation — no copies; a data
// region is page-mapped with hot/cold separation, DBMS-driven
// invalidation and incremental GC. Segregating the streams also keeps
// log pages out of data blocks, so data-region GC stops copying around
// soon-to-die log pages.
package region

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/noftl"
	"noftl/internal/sched"
)

// Mapping selects a region's translation granularity.
type Mapping uint8

// Mapping granularities.
const (
	// PageMapped keeps a full page-level translation table (a noftl
	// volume): arbitrary logical-page updates, hot/cold frontiers,
	// delta-write support, incremental GC.
	PageMapped Mapping = iota
	// SeqMapped keeps one translation entry per erase block (an
	// ftl.SeqLog): append-only positions, truncation instead of GC.
	SeqMapped
)

// String names the mapping granularity.
func (m Mapping) String() string {
	if m == SeqMapped {
		return "seq"
	}
	return "page"
}

// Class identifies an object class for placement.
type Class uint8

// Object classes the placement catalog can route.
const (
	ClassDefault Class = iota
	ClassWAL           // ARIES log stream
	ClassHeap          // heap-file pages
	ClassIndex         // B+-tree pages
	ClassDelta         // page-differential (delta) appends
	classCount
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassWAL:
		return "wal"
	case ClassHeap:
		return "heap"
	case ClassIndex:
		return "index"
	case ClassDelta:
		return "delta"
	default:
		return "default"
	}
}

// Spec declares one region.
type Spec struct {
	// Name identifies the region ("log", "data", "cold", ...).
	Name string
	// Dies is the number of dies the region claims. Exactly one region
	// per layout may leave it 0 to take every unclaimed die.
	Dies int
	// Mapping selects the translation granularity.
	Mapping Mapping

	// Page-mapped knob (forwarded to noftl.Config).
	OverProvision float64

	// BackgroundGC configures a page-mapped region for worker-driven
	// cleaning (noftl.Config.BackgroundGC): the write path keeps only the
	// emergency free-block floor and background GC workers do the rest.
	BackgroundGC bool
}

// Layout is a full region configuration: the regions plus the
// object-placement catalog routing classes to region names. Classes
// absent from Placement fall back to ClassDefault's region, and when
// that is absent too, to the first page-mapped region.
type Layout struct {
	Regions   []Spec
	Placement map[Class]string
	// Scheduler routes every region's flash commands through a native
	// command scheduler with per-class priorities: reads and WAL appends
	// ahead of data programs ahead of GC (nil: raw device order).
	Scheduler *sched.Scheduler
}

// DefaultDBLayout is the canonical database layout: a sequential "log"
// region holding the WAL and a page-mapped "data" region holding
// everything else. logDies is the log region's die count (minimum 1).
func DefaultDBLayout(logDies int) Layout {
	if logDies < 1 {
		logDies = 1
	}
	return Layout{
		Regions: []Spec{
			{Name: "log", Dies: logDies, Mapping: SeqMapped},
			{Name: "data", Mapping: PageMapped},
		},
		Placement: map[Class]string{
			ClassWAL:     "log",
			ClassHeap:    "data",
			ClassIndex:   "data",
			ClassDelta:   "data",
			ClassDefault: "data",
		},
	}
}

// Region is one managed region: a die subset with its own management
// policy. Exactly one of Vol (page-mapped) and Log (seq-mapped) is set.
type Region struct {
	Name    string
	Spec    Spec
	Dies    []int // device die numbers
	Vol     *noftl.Volume
	Log     *ftl.SeqLog
	mapping Mapping
}

// Mapping returns the region's translation granularity.
func (r *Region) Mapping() Mapping { return r.mapping }

// Stats returns the region's flash-maintenance counters.
func (r *Region) Stats() ftl.Stats {
	if r.Log != nil {
		return r.Log.Stats()
	}
	return r.Vol.Stats()
}

// Manager carves one native flash device into regions and routes object
// classes to them.
type Manager struct {
	dev     *flash.Device
	layout  Layout
	regions []*Region
	byName  map[string]*Region
}

// New builds the regions of a layout over a native flash device. Dies
// are assigned to regions in declaration order; a region with Dies == 0
// takes the remainder.
func New(dev *flash.Device, layout Layout) (*Manager, error) {
	return build(dev, layout, nil)
}

// Rebuild reconstructs every region's mapping state from flash after a
// restart: page-mapped regions rescan their dies' OOBs (noftl.Rebuild),
// sequential regions recover their extent list and frontier
// (ftl.RebuildSeqLog). The scans are charged to the request descriptor
// as real page reads.
func Rebuild(dev *flash.Device, layout Layout, rq ioreq.Req) (*Manager, error) {
	return build(dev, layout, &rq)
}

func build(dev *flash.Device, layout Layout, rebuild *ioreq.Req) (*Manager, error) {
	assign, err := assignDies(dev, layout)
	if err != nil {
		return nil, err
	}
	m := &Manager{dev: dev, layout: layout, byName: map[string]*Region{}}
	var io flash.Dev // nil: the raw device
	if layout.Scheduler != nil {
		io = layout.Scheduler.Dev()
	}
	for i, spec := range layout.Regions {
		r := &Region{Name: spec.Name, Spec: spec, Dies: assign[i], mapping: spec.Mapping}
		switch spec.Mapping {
		case PageMapped:
			cfg := noftl.Config{
				OverProvision: spec.OverProvision,
				Dies:          assign[i],
				Dev:           io,
				BackgroundGC:  spec.BackgroundGC,
			}
			if rebuild != nil {
				r.Vol, err = noftl.Rebuild(dev, cfg, *rebuild)
			} else {
				r.Vol, err = noftl.New(dev, cfg)
			}
		case SeqMapped:
			cfg := ftl.SeqLogConfig{Dies: assign[i], Dev: io}
			if rebuild != nil {
				r.Log, err = ftl.RebuildSeqLog(dev, cfg, *rebuild)
			} else {
				r.Log, err = ftl.NewSeqLog(dev, cfg)
			}
		default:
			err = fmt.Errorf("region: %q has unknown mapping %d", spec.Name, spec.Mapping)
		}
		if err != nil {
			return nil, fmt.Errorf("region %q: %w", spec.Name, err)
		}
		m.regions = append(m.regions, r)
		m.byName[spec.Name] = r
	}
	if err := m.checkPlacement(); err != nil {
		return nil, err
	}
	return m, nil
}

// assignDies partitions the device's dies among the layout's regions.
func assignDies(dev *flash.Device, layout Layout) ([][]int, error) {
	total := dev.Geometry().Dies()
	if len(layout.Regions) == 0 {
		return nil, fmt.Errorf("region: layout declares no regions")
	}
	claimed := 0
	remainder := -1
	seen := map[string]bool{}
	for i, spec := range layout.Regions {
		if spec.Name == "" {
			return nil, fmt.Errorf("region: region %d has no name", i)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("region: duplicate region name %q", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Dies < 0 {
			return nil, fmt.Errorf("region: %q claims %d dies", spec.Name, spec.Dies)
		}
		if spec.Dies == 0 {
			if remainder >= 0 {
				return nil, fmt.Errorf("region: both %q and %q claim the remainder",
					layout.Regions[remainder].Name, spec.Name)
			}
			remainder = i
			continue
		}
		claimed += spec.Dies
	}
	rest := total - claimed
	if remainder >= 0 && rest < 1 {
		return nil, fmt.Errorf("region: %d dies claimed of %d, none left for %q",
			claimed, total, layout.Regions[remainder].Name)
	}
	if remainder < 0 && rest != 0 {
		return nil, fmt.Errorf("region: %d dies claimed of %d and no remainder region", claimed, total)
	}
	out := make([][]int, len(layout.Regions))
	die := 0
	for i, spec := range layout.Regions {
		n := spec.Dies
		if i == remainder {
			n = rest
		}
		for j := 0; j < n; j++ {
			out[i] = append(out[i], die)
			die++
		}
	}
	return out, nil
}

// checkPlacement validates the catalog: every routed class names an
// existing region, and the WAL class (if routed) does not share a
// page-mapped region with itself accidentally — any mapping is legal,
// but the name must resolve.
func (m *Manager) checkPlacement() error {
	for c, name := range m.layout.Placement {
		if c >= classCount {
			return fmt.Errorf("region: placement routes unknown class %d", c)
		}
		if m.byName[name] == nil {
			return fmt.Errorf("region: class %v routed to unknown region %q", c, name)
		}
	}
	return nil
}

// Device returns the underlying native flash device.
func (m *Manager) Device() *flash.Device { return m.dev }

// Regions returns the managed regions in declaration order.
func (m *Manager) Regions() []*Region { return append([]*Region(nil), m.regions...) }

// Region returns a region by name, or nil.
func (m *Manager) Region(name string) *Region { return m.byName[name] }

// Volume returns the named page-mapped region's volume, or nil.
func (m *Manager) Volume(name string) *noftl.Volume {
	if r := m.byName[name]; r != nil {
		return r.Vol
	}
	return nil
}

// Log returns the named sequential region's log, or nil.
func (m *Manager) Log(name string) *ftl.SeqLog {
	if r := m.byName[name]; r != nil {
		return r.Log
	}
	return nil
}

// Place resolves an object class through the placement catalog: the
// class's own entry, then ClassDefault's, then the first page-mapped
// region.
func (m *Manager) Place(c Class) *Region {
	if name, ok := m.layout.Placement[c]; ok {
		return m.byName[name]
	}
	if name, ok := m.layout.Placement[ClassDefault]; ok {
		return m.byName[name]
	}
	for _, r := range m.regions {
		if r.mapping == PageMapped {
			return r
		}
	}
	return nil
}

// Mount resolves the layout into the pair a database engine mounts: the
// page-mapped data region (heaps, indexes and deltas must agree on it)
// and the region hosting the WAL. The WAL region may be nil when the
// catalog routes no ClassWAL (the engine then keeps its log elsewhere).
func (m *Manager) Mount() (data *Region, wal *Region, err error) {
	data = m.Place(ClassHeap)
	if data == nil || data.Vol == nil {
		return nil, nil, fmt.Errorf("region: no page-mapped region for heap pages")
	}
	for _, c := range []Class{ClassIndex, ClassDelta} {
		if r := m.Place(c); r != nil && r != data {
			return nil, nil, fmt.Errorf("region: class %v routed to %q but heaps live in %q "+
				"(the engine mounts one data region)", c, r.Name, data.Name)
		}
	}
	if name, ok := m.layout.Placement[ClassWAL]; ok {
		wal = m.byName[name]
	}
	return data, wal, nil
}

// Stats aggregates flash-maintenance counters across every region.
func (m *Manager) Stats() ftl.Stats {
	var s ftl.Stats
	for _, r := range m.regions {
		s = s.Add(r.Stats())
	}
	return s
}

// RegionStats is one region's reporting row.
type RegionStats struct {
	Name          string
	Mapping       Mapping
	Dies          int
	FTL           ftl.Stats
	LivePages     int64 // pages currently holding data
	CapacityPages int64 // pages the region can hold
	FreeBlocks    int64 // erased blocks ready for new programs
	// Erase-count statistics over the region's non-bad blocks — the
	// reporting view of the wear imbalance the background sweep acts on
	// (the sweep itself reads noftl.Volume.WearSpread per volume region).
	MinErase int
	MaxErase int
	AvgErase float64
}

// EraseSpread is MaxErase-MinErase, the region's wear imbalance.
func (s RegionStats) EraseSpread() int { return s.MaxErase - s.MinErase }

// Occupancy is the live fraction of the region's capacity (frontier
// occupancy for sequential regions, mapped-page fraction for page
// regions).
func (s RegionStats) Occupancy() float64 {
	if s.CapacityPages == 0 {
		return 0
	}
	return float64(s.LivePages) / float64(s.CapacityPages)
}

// RegionStats returns every region's counters by name, in declaration
// order.
func (m *Manager) RegionStats() []RegionStats {
	out := make([]RegionStats, 0, len(m.regions))
	for _, r := range m.regions {
		s := RegionStats{Name: r.Name, Mapping: r.mapping, Dies: len(r.Dies), FTL: r.Stats()}
		if r.Log != nil {
			s.LivePages = r.Log.LivePages()
			s.CapacityPages = r.Log.CapacityPages()
			s.FreeBlocks = r.Log.FreeBlocks()
		} else {
			s.LivePages = r.Vol.LivePages()
			s.CapacityPages = r.Vol.LogicalPages()
			s.FreeBlocks = r.Vol.FreeBlocks()
		}
		ws := m.dev.Array().Wear(r.Dies...)
		s.MinErase, s.MaxErase, s.AvgErase = ws.Min, ws.Max, ws.Mean
		out = append(out, s)
	}
	return out
}
