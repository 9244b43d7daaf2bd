// Quickstart: one noftl.NewSystem call builds the whole stack — an
// emulated native flash device, a host-managed NoFTL volume and the
// storage engine on top (no file system, no block-device layer, no
// on-device FTL). This is Figure 1.c of the paper end to end.
package main

import (
	"fmt"
	"log"

	"noftl"
)

func main() {
	// 1. The stack: 4 dies, ~64 MB SLC, NoFTL volume, engine. The facade
	// wires device → flash management → volume adapter → engine and
	// formats a fresh database.
	sys, err := noftl.NewSystem(noftl.SystemConfig{
		Stack:      noftl.StackNoFTL,
		Dies:       4,
		CapacityMB: 64,
		Frames:     128,
	})
	if err != nil {
		log.Fatal(err)
	}
	id := sys.Dev.Identify()
	fmt.Printf("device: %v (%v)\n", id.Geometry, id.Cell)
	fmt.Printf("volume: %d logical pages in %d regions\n",
		sys.NoFTL.LogicalPages(), sys.NoFTL.Regions())

	// 2. A table with an index, some transactions.
	e, ctx := sys.Engine, sys.Ctx
	tbl, err := e.CreateTable(ctx, "users")
	if err != nil {
		log.Fatal(err)
	}
	idx, err := e.CreateIndex(ctx, "users_pk")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tx := e.Begin()
		rid, err := e.Insert(ctx, tx, tbl, fmt.Appendf(nil, "user-%04d: some payload", i))
		if err != nil {
			log.Fatal(err)
		}
		if err := e.IdxInsert(ctx, tx, idx, int64(i), rid); err != nil {
			log.Fatal(err)
		}
		if err := e.Commit(ctx, tx); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Read one back through the index.
	rid, found, err := e.IdxLookup(ctx, nil, idx, 42)
	if err != nil || !found {
		log.Fatalf("lookup: found=%v err=%v", found, err)
	}
	tx := e.Begin()
	row, err := e.Fetch(ctx, tx, rid)
	if err != nil {
		log.Fatal(err)
	}
	// The row belongs to the transaction: use (or copy) it before Commit.
	fmt.Printf("user 42 -> %q at %v\n", row, rid)
	_ = e.Commit(ctx, tx)

	// 4. Clean shutdown (checkpoints, flushing dirty pages to flash),
	// then one cross-layer snapshot of what the stack did.
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}
	snap := sys.Snapshot()
	fmt.Printf("flash: %d reads, %d programs, %d erases, %d copybacks\n",
		snap.Device.Reads, snap.Device.Programs, snap.Device.Erases, snap.Device.Copybacks)
	fmt.Printf("noftl: write amplification %.2f, wear %d..%d erases/block\n",
		snap.FTL.WriteAmplification(), sys.Dev.Array().Wear().Min, sys.Dev.Array().Wear().Max)
	fmt.Printf("wal: %d records, %d bytes logged\n", snap.WALAppends, snap.WALBytes)
}
