package bench

import (
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// TestTPCCConsistencyOnStacks runs concurrent TPC-C against both the
// conventional FTL stack and NoFTL, then audits the database: committed
// order ids must be dense below each district's next_o_id, every order's
// lines must exist, and warehouse YTD must equal the sum of district
// YTDs. This end-to-end invariant check is the regression net for the
// buffer-pool and B-tree concurrency bugs found during development
// (lost dirty flags, split-brain frames, unlatched splits, lost
// next_o_id updates).
func TestTPCCConsistencyOnStacks(t *testing.T) {
	for _, stack := range []system.Stack{system.StackFaster, system.StackNoFTL} {
		stack := stack
		t.Run(string(stack), func(t *testing.T) {
			devCfg := flash.EmulatorConfig(4, 96, nand.SLC)
			sys, err := system.New(system.Config{Stack: stack, Device: &devCfg, Frames: 256})
			if err != nil {
				t.Fatal(err)
			}
			assoc := storage.AssocGlobal
			if stack == system.StackNoFTL {
				assoc = storage.AssocDieWise
			}
			wl := workload.NewTPCC(workload.TPCCConfig{Warehouses: 1})
			res, err := RunTPS(sys, wl, TPSConfig{
				Workers:     8,
				Writers:     4,
				Association: assoc,
				Warm:        500 * sim.Millisecond,
				Measure:     2 * sim.Second,
				Seed:        7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed == 0 {
				t.Fatal("no transactions committed")
			}
			auditTPCC(t, sys)
		})
	}
}

func auditTPCC(t *testing.T, sys *system.System) {
	t.Helper()
	e := sys.Engine
	ctx := sys.Ctx
	open := func(name string) uint32 {
		id, err := e.OpenTable(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		return id
	}
	dist := open("tpcc_district")
	orderPK := open("tpcc_order_pk")
	olPK := open("tpcc_ol_pk")
	wh := open("tpcc_warehouse")

	const oidSpan = int64(1 << 24)
	field := func(b []byte, i int) int64 {
		v := int64(0)
		for k := 7; k >= 0; k-- {
			v = v<<8 | int64(b[i*8+k])
		}
		return v
	}

	// District order-id density and per-order line completeness.
	var districts [][2]int64 // {wd, nextOid}
	if err := e.Scan(ctx, dist, func(rid storage.RID, rec []byte) bool {
		districts = append(districts, [2]int64{field(rec, 0), field(rec, 1)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(districts) != 10 {
		t.Fatalf("districts = %d", len(districts))
	}
	var dsum int64
	for _, d := range districts {
		wd, next := d[0], d[1]
		for oid := int64(0); oid < next; oid++ {
			okey := wd*oidSpan + oid
			rid, found, err := e.IdxLookup(ctx, nil, orderPK, okey)
			if err != nil || !found {
				t.Fatalf("district %d: order %d missing below next_o_id %d (%v)", wd, oid, next, err)
			}
			orow, err := e.FetchDirty(ctx, rid)
			if err != nil {
				t.Fatalf("order %d row: %v", okey, err)
			}
			nOL := field(orow, 2)
			for l := int64(0); l < nOL; l++ {
				if _, found, err := e.IdxLookup(ctx, nil, olPK, okey*16+l); err != nil || !found {
					t.Fatalf("order %d line %d of %d missing (%v)", okey, l, nOL, err)
				}
			}
		}
	}
	// Money conservation: warehouse YTD == sum of district YTDs
	// (payments update both by the same amount).
	var wytd int64
	if err := e.Scan(ctx, wh, func(rid storage.RID, rec []byte) bool {
		wytd += field(rec, 1)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Scan(ctx, dist, func(rid storage.RID, rec []byte) bool {
		dsum += field(rec, 2)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if wytd != dsum {
		t.Fatalf("YTD drift: warehouse %d, districts %d", wytd, dsum)
	}
}
