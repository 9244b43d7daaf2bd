package flash

import "noftl/internal/nand"

// EmulatorConfig returns a parameterizable emulator geometry with the
// requested number of dies (spread over min(dies, 8) channels), sized so
// that the device holds roughly capacityMB of user data. This mirrors the
// paper's enhanced emulator, which is reconfigured per experiment.
func EmulatorConfig(dies, capacityMB int, cell nand.CellType) Config {
	if dies < 1 {
		dies = 1
	}
	// Largest channel count <= 8 that divides the die count, so every
	// channel serves the same number of dies.
	channels := 1
	for c := 2; c <= 8 && c <= dies; c++ {
		if dies%c == 0 {
			channels = c
		}
	}
	const (
		pageSize      = 4096
		pagesPerBlock = 64
		planesPerDie  = 2
	)
	// blocksPerPlane chosen so dies * planes * blocks * pages * 4KiB ≈ capacity.
	blockBytes := int64(pagesPerBlock) * pageSize
	planeCount := int64(dies) * planesPerDie
	blocksPerPlane := (int64(capacityMB) * 1 << 20) / (blockBytes * planeCount)
	if blocksPerPlane < 8 {
		blocksPerPlane = 8
	}
	return Config{
		Geometry: nand.Geometry{
			Channels:        channels,
			ChipsPerChannel: dies / channels,
			DiesPerChip:     1,
			PlanesPerDie:    planesPerDie,
			BlocksPerPlane:  int(blocksPerPlane),
			PagesPerBlock:   pagesPerBlock,
			PageSize:        pageSize,
			OOBSize:         128,
		},
		Cell:        cell,
		ChannelMBps: 200,
		Nand:        nand.Options{StoreData: true},
	}
}
