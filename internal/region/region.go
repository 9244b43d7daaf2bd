// Package region implements configurable flash regions: the die array
// is carved into named regions, each with its own die allocation, write
// frontier, mapping granularity and over-provisioning. A layout is its
// list of Specs, and a Spec carries exactly those choices — name, dies,
// mapping, over-provisioning — and nothing else: every other volume or
// log parameter runs at its package default (greedy GC victims for a
// page-mapped region). A database engine mounts a layout's one
// sequential region as its WAL and its one page-mapped region for
// heaps, B+-trees and deltas (Manager.Mount): each stream lands on the
// mapping that fits it.
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
}

// DefaultDBLayout is the canonical database layout: a sequential "log"
// region holding the WAL and a page-mapped "data" region holding
// everything else. logDies is the log region's die count (minimum 1).
func DefaultDBLayout(logDies int) []Spec {
	if logDies < 1 {
		logDies = 1
	}
	return []Spec{
		{Name: "log", Dies: logDies, Mapping: SeqMapped},
		{Name: "data", Mapping: PageMapped},
	}
}

// Region is one managed region: a die subset with its own management
// policy. Exactly one of Vol (page-mapped) and Log (seq-mapped) is set.
type Region struct {
	Name string
	Spec Spec
	Dies []int // device die numbers
	Vol  *noftl.Volume
	Log  *ftl.SeqLog
}

// Stats returns the region's flash-maintenance counters.
func (r *Region) Stats() ftl.Stats {
	if r.Log != nil {
		return r.Log.Stats()
	}
	return r.Vol.Stats()
}

// Manager carves one native flash device into regions.
type Manager struct {
	dev     *flash.Device
	regions []*Region
	byName  map[string]*Region
}

// New builds a layout's regions over a native flash device. Dies are
// assigned to regions in declaration order; a region with Dies == 0
// takes the remainder. io carries every region's flash commands (nil:
// the raw device), so a native command scheduler's Dev routes them
// through its per-class queues. backgroundGC configures every
// page-mapped region for worker-driven cleaning (noftl.Config.BackgroundGC):
// the write path keeps only the emergency free-block floor and
// background GC workers do the rest.
func New(dev *flash.Device, specs []Spec, io flash.Dev, backgroundGC bool) (*Manager, error) {
	return build(dev, specs, io, backgroundGC, nil)
}

// Rebuild reconstructs every region's mapping state from flash after a
// restart: page-mapped regions rescan their dies' OOBs (noftl.Rebuild),
// sequential regions recover their extent list and frontier
// (ftl.RebuildSeqLog). The scans are charged to the request descriptor
// as real page reads.
func Rebuild(dev *flash.Device, specs []Spec, io flash.Dev, backgroundGC bool, rq ioreq.Req) (*Manager, error) {
	return build(dev, specs, io, backgroundGC, &rq)
}

func build(dev *flash.Device, specs []Spec, io flash.Dev, backgroundGC bool, rebuild *ioreq.Req) (*Manager, error) {
	assign, err := assignDies(dev, specs)
	if err != nil {
		return nil, err
	}
	m := &Manager{dev: dev, byName: map[string]*Region{}}
	for i, spec := range specs {
		r := &Region{Name: spec.Name, Spec: spec, Dies: assign[i]}
		switch spec.Mapping {
		case PageMapped:
			cfg := noftl.Config{
				OverProvision: spec.OverProvision,
				Dies:          assign[i],
				Dev:           io,
				BackgroundGC:  backgroundGC,
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
	return m, nil
}

// assignDies partitions the device's dies among the layout's regions.
func assignDies(dev *flash.Device, specs []Spec) ([][]int, error) {
	total := dev.Geometry().Dies()
	if len(specs) == 0 {
		return nil, fmt.Errorf("region: layout declares no regions")
	}
	claimed := 0
	remainder := -1
	seen := map[string]bool{}
	for i, spec := range specs {
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
					specs[remainder].Name, spec.Name)
			}
			remainder = i
			continue
		}
		claimed += spec.Dies
	}
	rest := total - claimed
	if remainder >= 0 && rest < 1 {
		return nil, fmt.Errorf("region: %d dies claimed of %d, none left for %q",
			claimed, total, specs[remainder].Name)
	}
	if remainder < 0 && rest != 0 {
		return nil, fmt.Errorf("region: %d dies claimed of %d and no remainder region", claimed, total)
	}
	out := make([][]int, len(specs))
	die := 0
	for i, spec := range specs {
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

// Mount resolves the layout into the pair a database engine mounts:
// its one page-mapped region holds the data (heaps, B+-trees, deltas)
// and its one sequential region the WAL — each stream on the mapping
// that fits it. Any other set of regions is an error.
func (m *Manager) Mount() (data *Region, wal *Region, err error) {
	for _, r := range m.regions {
		switch {
		case r.Vol != nil && data == nil:
			data = r
		case r.Log != nil && wal == nil:
			wal = r
		default:
			return nil, nil, fmt.Errorf("region: %q is a second %s-mapped region "+
				"(the engine mounts one page-mapped and one sequential region)", r.Name, r.Spec.Mapping)
		}
	}
	if data == nil || wal == nil {
		return nil, nil, fmt.Errorf("region: the engine mounts one page-mapped and one sequential region")
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
	// Erase-count statistics over the region's non-bad blocks: the
	// reporting view of the region's wear imbalance.
	MinErase int
	MaxErase int
	AvgErase float64
}

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
		s := RegionStats{Name: r.Name, Mapping: r.Spec.Mapping, Dies: len(r.Dies), FTL: r.Stats()}
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
