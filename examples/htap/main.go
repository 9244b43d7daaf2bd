// HTAP on native flash: an OLTP terminal set (TPC-B) and an analytical
// reader set (TPC-H-style scans) run concurrently on the
// region-managed, priority-scheduled NoFTL stack, under three DBMS-side
// IO policies — the naive shared clock pool, the scan-resistant
// segmented pool, and scan resistance plus sequential read-ahead
// through the scheduler's low-priority prefetch class. The DBMS, not
// the device, decides how the two streams share the flash.
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	res, err := noftl.HTAPAblation(noftl.HTAPConfig{
		Params: noftl.ExperimentParams{
			Dies: 8, DriveMB: 48, Workers: 8, Frames: 192,
			Warm: 1 * noftl.Second, Measure: 4 * noftl.Second, Seed: 42,
		},
		Readers: 2,
		TPCB:    noftl.TPCBConfig{Branches: 8, AccountsPerBranch: 3000},
		TPCH:    noftl.TPCHConfig{ScaleFactor: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("HTAP: OLTP terminals vs analytical scans, per pool/read policy")
	fmt.Print(res.Table())
	fmt.Printf("\nscan-resist+prefetch vs naive shared pool:\n")
	const full, naive = "scan-resist+prefetch", "naive" // row names
	fmt.Printf("  OLTP TPS   %.2fx\n", res.Ratio(full, naive, noftl.TPS))
	fmt.Printf("  commit p99 %.2fx\n", res.Ratio(full, naive, noftl.CommitP99))
	fmt.Printf("  scan rows  %.2fx (read-ahead pipelines the scan across dies)\n", res.Ratio(full, naive, noftl.ScanRowsPerS))
}
