// Configurable flash regions: declare regions with per-region
// management policies (the WAL lands on the native append-only log
// region because it is sequential-mapped, data on the page-mapped
// region), run a mixed workload and read the per-region statistics. The
// stack — device, regions, engine with the WAL mounted natively on the
// log region — comes from one noftl.NewSystem call with a custom layout;
// after a crash, sys.Reopen rebuilds every region's mapping from flash
// and replays the WAL.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"noftl"
)

func main() {
	// Carve the die array: one die becomes the sequential log region
	// (block-granular mapping, truncation instead of GC), the rest the
	// page-mapped data region. The engine mounts the sequential region
	// as its WAL and the page-mapped one for heaps and B+-trees: each
	// stream lands on the mapping that fits it.
	sys, err := noftl.NewSystem(noftl.SystemConfig{
		Stack:      noftl.StackNoFTLRegions,
		Dies:       8,
		CapacityMB: 64,
		Frames:     256,
		Regions: []noftl.RegionSpec{
			{Name: "log", Dies: 1, Mapping: noftl.SeqMapped},
			{Name: "data", Mapping: noftl.PageMapped, OverProvision: 0.1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	mgr, ctx, e := sys.Regions, sys.Ctx, sys.Engine
	for _, r := range mgr.Regions() {
		fmt.Printf("region %-5s %s-mapped, dies %v\n", r.Name, r.Spec.Mapping, r.Dies)
	}

	// A mixed workload: TPC-B load plus a few thousand transactions with
	// periodic checkpoints (each truncates the log region — watch its
	// erases rise with zero GC copies), the last 249 after the last one.
	wl := noftl.NewTPCB(noftl.TPCBConfig{Branches: 8})
	if err := wl.Load(ctx, e); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4000; i++ {
		if err := wl.RunOne(ctx, e, rng); err != nil {
			log.Fatal(err)
		}
		if i%500 == 250 {
			if err := e.Checkpoint(ctx); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("\nper-region statistics after the run:")
	for _, rs := range mgr.RegionStats() {
		fmt.Printf("  %-5s hostW=%-6d gcCopies=%-4d erases=%-4d WA=%.3f occupancy=%.1f%%\n",
			rs.Name, rs.FTL.HostWrites, rs.FTL.GCCopybacks+rs.FTL.GCWrites,
			rs.FTL.Erases, rs.FTL.WriteAmplification(), 100*rs.Occupancy())
	}
	agg := mgr.Stats()
	fmt.Printf("  total hostW=%d erases=%d (the log region's \"GC\" is pure truncation)\n",
		agg.HostWrites, agg.Erases)

	// Crash without Close, then restart: both regions rebuild their
	// mapping from flash OOBs and the engine replays the WAL from the log
	// region, all charged to the new system's serial clock.
	sys, err = sys.Reopen()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrestart: region mappings rebuilt from flash and WAL replayed in %v (recovered=%v)\n",
		sys.Ctx.W.Now(), sys.Engine.Recovered)
	for i := 0; i < 500; i++ {
		if err := wl.RunOne(sys.Ctx, sys.Engine, rng); err != nil {
			log.Fatalf("transaction after restart: %v", err)
		}
	}
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("500 more transactions ran clean")
}
