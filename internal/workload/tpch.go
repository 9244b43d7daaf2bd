package workload

import (
	"fmt"
	"math/rand"

	"noftl/internal/storage"
)

// TPCHConfig scales the TPC-H-like analytical workload: scan-heavy,
// read-only queries over orders/lineitem — the paper's sequential-read
// stressor.
type TPCHConfig struct {
	// ScaleFactor drives the orders population: sf × 1500 orders.
	ScaleFactor int
	// Seed drives the load-time population RNG (lineitem cardinalities),
	// so "deterministic per seed" holds for the analytical workloads the
	// same way it does for TPC-B/TPC-C query streams. 0 selects the
	// historical default of 7.
	Seed int64
}

func (c TPCHConfig) withDefaults() TPCHConfig {
	if c.ScaleFactor <= 0 {
		c.ScaleFactor = 1
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

const (
	tpchLinesPerOrderMax = 7  // spec average ≈ 4
	tpchFiller           = 96 // pads rows
)

// TPCH runs rotating analytical queries: a full-scan aggregation (Q1
// shape), a filtered-scan revenue sum (Q6 shape) and an index-driven
// order/lineitem join (Q3 shape).
type TPCH struct {
	cfg TPCHConfig

	orders, lineitem uint32
	orderPK, linePK  uint32
	nOrders          int64
	next             int
	rows             int64
}

// RowsScanned counts the rows every query callback has visited since
// load — the analytical-throughput numerator HTAP runs report next to
// the OLTP TPS.
func (t *TPCH) RowsScanned() int64 { return t.rows }

// NewTPCH creates the workload.
func NewTPCH(cfg TPCHConfig) *TPCH { return &TPCH{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (t *TPCH) Name() string { return "tpch" }

// Load implements Workload.
func (t *TPCH) Load(ctx *storage.IOCtx, e *storage.Engine) error {
	var err error
	mk := func(name string, table bool) uint32 {
		if err != nil {
			return 0
		}
		var id uint32
		if table {
			id, err = e.CreateTable(ctx, name)
		} else {
			id, err = e.CreateIndex(ctx, name)
		}
		return id
	}
	t.orders = mk("tpch_orders", true)
	t.lineitem = mk("tpch_lineitem", true)
	t.orderPK = mk("tpch_orders_pk", false)
	t.linePK = mk("tpch_lineitem_pk", false)
	if err != nil {
		return err
	}
	t.nOrders = int64(t.cfg.ScaleFactor) * 1500
	rng := rand.New(rand.NewSource(t.cfg.Seed))
	// Order row: {oid, custkey, totalprice, orderdate}.
	if err := e.LoadRows(ctx, t.orders, t.orderPK, t.nOrders,
		func(i int64) (int64, []byte) {
			return i, rec(tpchFiller, i, i%997, 1000+i%9000, i%2557)
		}); err != nil {
		return fmt.Errorf("tpch: orders: %w", err)
	}
	// Line rows: {lkey, oid, qty, extendedprice, shipdate}.
	var lkeys int64
	for o := int64(0); o < t.nOrders; o += 300 {
		end := o + 300
		if end > t.nOrders {
			end = t.nOrders
		}
		err := withTx(ctx, e, func(tx *storage.Tx) error {
			for oid := o; oid < end; oid++ {
				n := int64(1 + rng.Intn(tpchLinesPerOrderMax))
				for l := int64(0); l < n; l++ {
					lkey := oid*16 + l
					rid, err := e.Insert(ctx, tx, t.lineitem,
						rec(tpchFiller, lkey, oid, 1+lkey%50, 900+lkey%9100, lkey%2557))
					if err != nil {
						return err
					}
					if err := e.IdxInsert(ctx, tx, t.linePK, lkey, rid); err != nil {
						return err
					}
					lkeys++
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("tpch: lineitem: %w", err)
		}
	}
	return nil
}

// RunOne implements Workload: one analytical query per call, rotating
// through the three shapes.
func (t *TPCH) RunOne(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	q := t.next % 3
	t.next++
	switch q {
	case 0:
		return t.q1(ctx, e)
	case 1:
		return t.q6(ctx, e, rng)
	default:
		return t.q3(ctx, e, rng)
	}
}

// q1: full lineitem scan with aggregation.
func (t *TPCH) q1(ctx *storage.IOCtx, e *storage.Engine) error {
	var sumQty, sumPrice, count int64
	err := e.Scan(ctx, t.lineitem, func(rid storage.RID, row []byte) bool {
		sumQty += field(row, 2)
		sumPrice += field(row, 3)
		count++
		t.rows++
		return true
	})
	if err != nil {
		return err
	}
	if count == 0 {
		return fmt.Errorf("tpch: q1 scanned nothing")
	}
	return nil
}

// q6: filtered scan (shipdate window, quantity bound) computing revenue.
func (t *TPCH) q6(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	lo := int64(rng.Intn(2000))
	hi := lo + 365
	var revenue int64
	return e.Scan(ctx, t.lineitem, func(rid storage.RID, row []byte) bool {
		ship := field(row, 4)
		if ship >= lo && ship < hi && field(row, 2) < 24 {
			revenue += field(row, 3)
		}
		t.rows++
		return true
	})
}

// q3: index-driven join: a band of orders and their lineitems.
func (t *TPCH) q3(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	start := rng.Int63n(t.nOrders)
	end := start + 200
	if end > t.nOrders {
		end = t.nOrders
	}
	return withTx(ctx, e, func(tx *storage.Tx) error {
		return e.IdxRange(ctx, t.orderPK, start, end-1, func(k int64, rid storage.RID) bool {
			var oid int64
			if err := e.ViewDirty(ctx, rid, func(orow []byte) { oid = field(orow, 0) }); err != nil {
				return false
			}
			t.rows++
			_ = e.IdxRange(ctx, t.linePK, oid*16, oid*16+15,
				func(lk int64, lrid storage.RID) bool {
					_ = e.ViewDirty(ctx, lrid, func([]byte) {})
					t.rows++
					return true
				})
			return true
		})
	})
}
