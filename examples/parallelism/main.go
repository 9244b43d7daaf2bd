// Flash-aware db-writer association (§3.2 of the paper, Figure 4 at
// example scale): the same TPC-B run with db-writers assigned globally
// versus die-wise, #db-writers = #dies, through noftl.Figure4. The paper
// reports die-wise association raising throughput by up to 1.43× on
// TPC-B. At this scale it does not: die-wise prints 0.94× global at 4
// dies and 0.91× at 8. Die-wise writers write back more pages, yet the
// foreground still writes thousands of evicted victims synchronously
// under both associations (the sync and async columns). Why, and whether
// the paper's regime (a 10 GB drive, TPC-B sf=500) changes it, is
// ROADMAP item 6 ("Figure 4 reproduced or explained").
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	res, err := noftl.Figure4(noftl.Fig4Config{
		Workload: "tpcb",
		Dies:     []int{1, 4, 8},
		Workers:  8,
		DriveMB:  96,
		Frames:   256,
		Warm:     noftl.Second,
		Measure:  4 * noftl.Second,
		Seed:     11,
		TPCB:     noftl.TPCBConfig{Branches: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TPC-B throughput, #db-writers = #dies, 8 terminals")
	fmt.Print(res.Table())
}
