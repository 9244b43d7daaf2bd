// Device health observability on native flash: a region-managed,
// priority-scheduled NoFTL stack runs TPC-B, then the host reads the
// device's health straight off the system — per-die wear heatmaps and
// erase histograms, and per-region GC efficiency with the byte
// decomposition behind write amplification.
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	sys, err := noftl.NewSystem(noftl.SystemConfig{
		Stack: noftl.StackNoFTLRegions, Dies: 4, CapacityMB: 24, Frames: 128,
	},
		noftl.WithPriorityScheduler(),
		noftl.WithBackgroundGC())
	if err != nil {
		log.Fatal(err)
	}

	res, err := noftl.RunTPS(sys, noftl.NewTPCB(noftl.TPCBConfig{
		Branches: 7, AccountsPerBranch: 6000,
	}), noftl.TPSConfig{
		Workers: 8, Writers: 4,
		Association: noftl.AssocDieWise,
		Warm:        500 * noftl.Millisecond,
		Measure:     3 * noftl.Second,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}

	snap := sys.Health()
	fmt.Printf("%.0f TPS on %d dies; device health at t=%s:\n\n",
		res.TPS, snap.Device.Dies, snap.TNs)

	fmt.Printf("wear: min %d, max %d, spread %d, p50 %d, p99 %d over %d blocks (%d bad)\n",
		snap.Wear.Min, snap.Wear.Max, snap.Wear.Spread,
		snap.Wear.P50, snap.Wear.P99, snap.Wear.TotalBlocks, snap.Wear.BadBlocks)
	for _, d := range snap.Dies {
		fmt.Printf("  die %d: erase [%d,%d] mean %.1f, hist", d.Die, d.EraseMin, d.EraseMax, d.EraseMean)
		for _, b := range d.Hist {
			fmt.Printf(" <=%d:%d", b.Le, b.Count)
		}
		fmt.Println()
	}

	fmt.Println("\nregions:")
	for _, r := range snap.Regions {
		fmt.Printf("  %-5s (%s): occupancy %.0f%%, free blocks %d, WA %.2f, valid-copy %.2f\n",
			r.Name, r.Mapping, 100*r.Occupancy, r.FreeBlocks, r.GC.WA, r.GC.ValidCopyRatio)
		fmt.Printf("        bytes: host %d, gc %d, wear %d, fold %d\n",
			r.GC.HostBytes, r.GC.GCBytes, r.GC.WearBytes, r.GC.FoldBytes)
	}

	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
}
