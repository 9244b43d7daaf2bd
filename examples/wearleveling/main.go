// Host-side flash maintenance: wear leveling, bad-block management and
// mapping rebuild — the FTL duties that §3/Figure 2 of the paper move
// into the DBMS, exercised directly against the public API.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"noftl"
)

func main() {
	// A small device with failure injection: some blocks die young.
	cfg := noftl.EmulatorConfig(2, 32, noftl.SLC)
	cfg.Nand.ProgramFailProb = 0.0001 // a few grown bad blocks over the run
	cfg.Nand.InitialBadFraction = 0.01
	cfg.Nand.Seed = 99
	dev := noftl.NewDevice(cfg)

	vol, err := noftl.NewVolume(dev, noftl.VolumeConfig{WearDelta: 16})
	if err != nil {
		log.Fatal(err)
	}
	rq := noftl.NewReq(&noftl.ClockWaiter{})
	n := vol.LogicalPages()
	page := make([]byte, cfg.Geometry.PageSize)

	// Cold data once, then a hot working set hammered hard — the
	// classic wear-leveling stress.
	for lpn := int64(0); lpn < n; lpn++ {
		if err := vol.WriteHint(rq, lpn, page, noftl.HintCold); err != nil {
			log.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < int(n)*8; i++ {
		lpn := rng.Int63n(n / 10)
		if err := vol.WriteHint(rq, lpn, page, noftl.HintHot); err != nil {
			log.Fatal(err)
		}
	}

	wear := dev.Array().Wear()
	counters := dev.Array().Counters()
	st := vol.Stats()
	fmt.Printf("after %d writes over %d pages:\n", int(n)*9, n)
	fmt.Printf("  wear per block: min %d, max %d, mean %.1f (spread stays tight)\n",
		wear.Min, wear.Max, wear.Mean)
	fmt.Printf("  wear-leveling moves: %d, GC copybacks: %d, erases: %d\n",
		st.WearMoves, st.GCCopybacks, st.Erases)
	fmt.Printf("  bad blocks: %d factory, %d grown (data salvaged and remapped)\n",
		counters.FactoryBad, counters.GrownBad)
	if counters.GrownBad == 0 {
		log.Fatal("no block grew bad: salvage went unexercised")
	}

	// The host keeps the mapping — after a restart it is rebuilt by
	// scanning the out-of-band metadata on flash, with the capacity the
	// volume was formatted with: the grown bad blocks cost spare only.
	vol2, err := noftl.RebuildVolume(dev, noftl.VolumeConfig{}, noftl.NewReq(&noftl.ClockWaiter{}))
	if err != nil {
		log.Fatal(err)
	}
	if vol2.LogicalPages() != n {
		log.Fatalf("rebuilt volume exports %d pages, formatted %d", vol2.LogicalPages(), n)
	}
	buf := make([]byte, cfg.Geometry.PageSize)
	if err := vol2.Read(noftl.NewReq(&noftl.ClockWaiter{}), n-1, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mapping rebuilt from OOB after restart: %d pages addressable\n",
		vol2.LogicalPages())
}
