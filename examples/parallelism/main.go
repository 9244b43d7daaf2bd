// Flash-aware db-writer association (§3.2 of the paper, Figure 4 at
// example scale): the same TPC-B run with db-writers assigned globally
// versus die-wise, #db-writers = #dies, through noftl.Figure4. The paper
// reports die-wise association raising throughput by up to 1.43× on
// TPC-B. At this scale die-wise prints 1.11× global at 4 dies and 1.06×
// at 8. The writers clean the frames the eviction clock takes next;
// die-wise writers, each on its own die, clean more of them (the async
// column) and leave the evicting terminals fewer to write back
// themselves (the sync column). Whether the paper's regime (a 10 GB
// drive, TPC-B sf=500) widens the gap is ROADMAP item 4.
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	res, err := noftl.Figure4(noftl.Fig4Config{
		Params: noftl.ExperimentParams{DriveMB: 96, Workers: 8, Frames: 256,
			Warm: noftl.Second, Measure: 4 * noftl.Second, Seed: 11},
		Workload: "tpcb",
		Sweep:    []int{1, 4, 8},
		TPCB:     noftl.TPCBConfig{Branches: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TPC-B throughput, #db-writers = #dies, 8 terminals")
	fmt.Print(res.Table())
}
