// Per-request QoS on native flash: two TPC-B tenants share one
// region-managed, priority-scheduled NoFTL stack. The high tenant runs
// with the default request descriptor plus a per-transaction deadline;
// the low tenant declares ClassPrefetch on every request it issues —
// and because the descriptor travels from the terminal through the
// engine and flash management down to the per-die command queues, the
// scheduler serves the two streams differently at every die. The
// per-tag p99 commit latencies diverge while both tenants keep
// committing; the smoke test in internal/bench asserts the split.
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	res, err := noftl.QoS(noftl.QoSConfig{
		Params: noftl.ExperimentParams{
			Dies: 8, DriveMB: 64, Workers: 16, Writers: 8, Frames: 384,
			Warm: 1 * noftl.Second, Measure: 4 * noftl.Second, Seed: 42,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Per-request QoS: two TPC-B tenants, one declared low-priority")
	fmt.Print(res.Table())
	fmt.Printf("\np99 commit split low/high: %.2fx\n", res.P99Ratio())
	fmt.Printf("low tenant's prefetch-class dispatches: %d\n", res.LowDispatches())
	fmt.Println("\nThe split exists because the request descriptor — class, tag,")
	fmt.Println("deadline — survives every layer: terminal → engine → volume →")
	fmt.Println("region → per-die queue. A legacy block interface drops it at the")
	fmt.Println("first hop.")
}
