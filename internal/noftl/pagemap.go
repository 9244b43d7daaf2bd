package noftl

import (
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// PageFTL is the baseline pure page-level mapping FTL of the comparison
// path: the NoFTL die manager run on-device, with everything only the
// DBMS knows switched off — no placement hints, no delta appends, no
// background GC, no scheduler classes — so the two sides of the paper's
// comparison differ in that knowledge and in nothing else.
type PageFTL struct{ v *Volume }

// NewPageFTL builds a page-mapping FTL over dev.
func NewPageFTL(dev *flash.Device, cfg ftl.PageFTLConfig) (*PageFTL, error) {
	v, err := newPageMappedVolume(dev, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &PageFTL{v: v}, nil
}

// newPageMappedVolume builds the volume both page-mapped comparison FTLs
// run on (moved: see newVolume).
func newPageMappedVolume(dev *flash.Device, cfg ftl.PageFTLConfig, moved func(sim.Waiter, int64) error) (*Volume, error) {
	if cfg.OverProvision <= 0 {
		cfg.OverProvision = 0.10
	}
	// Two frontiers per plane: with hints off and no delta path only the
	// host and GC frontiers ever open. No comparison FTL wear-levels.
	return newVolume(dev, Config{
		OverProvision:    cfg.OverProvision,
		Policy:           cfg.Policy,
		DisableWearLevel: true,
		DisableHints:     true,
	}, 2, moved)
}

// Name implements ftl.FTL.
func (f *PageFTL) Name() string { return "pagemap" }

// LogicalPages implements ftl.FTL.
func (f *PageFTL) LogicalPages() int64 { return f.v.LogicalPages() }

// Stats implements ftl.FTL.
func (f *PageFTL) Stats() ftl.Stats { return f.v.Stats() }

// Read implements ftl.FTL.
func (f *PageFTL) Read(w sim.Waiter, lpn int64, buf []byte) error {
	return f.v.Read(ioreq.Plain(w), lpn, buf)
}

// Write implements ftl.FTL.
func (f *PageFTL) Write(w sim.Waiter, lpn int64, data []byte) error {
	return f.v.Write(ioreq.Plain(w), lpn, data)
}

// Trim implements ftl.FTL.
func (f *PageFTL) Trim(_ sim.Waiter, lpn int64) error { return f.v.Invalidate(lpn) }
