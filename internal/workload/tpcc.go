package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"noftl/internal/storage"
)

// errRollback is the spec-mandated intentional rollback (1% of NewOrder
// transactions carry an invalid item and must abort).
var errRollback = errors.New("workload: intentional rollback")

// TPCCConfig scales the TPC-C schema. Spec ratios kept: 10 districts per
// warehouse, customer/stock/item populations shrink proportionally.
type TPCCConfig struct {
	// Warehouses is the scale factor (sf).
	Warehouses int
	// CustomersPerDistrict defaults to 120 (spec: 3000).
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	CustomersPerDistrict int
	// Items defaults to 1000 (spec: 100,000); stock is per (warehouse,
	// item).
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	Items int
	// InitialOrdersPerDistrict defaults to 30 (spec: 3000).
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	InitialOrdersPerDistrict int
}

func (c TPCCConfig) withDefaults() TPCCConfig {
	if c.Warehouses <= 0 {
		c.Warehouses = 1
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 120
	}
	if c.Items <= 0 {
		c.Items = 1000
	}
	if c.InitialOrdersPerDistrict <= 0 {
		c.InitialOrdersPerDistrict = 30
	}
	return c
}

const (
	districtsPerWH = 10
	maxOrderLines  = 15
	oidSpan        = int64(1 << 24) // order ids per district before key overflow
)

// TPCC is the TPC-C benchmark with the spec transaction mix:
// NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%.
type TPCC struct {
	cfg TPCCConfig

	warehouse, district, customer, history  uint32
	order, newOrder, orderLine, item, stock uint32
	whPK, distPK, custPK, itemPK, stockPK   uint32
	orderPK, noPK, olPK, orderCust          uint32
}

// NewTPCC creates a TPC-C workload.
func NewTPCC(cfg TPCCConfig) *TPCC { return &TPCC{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (t *TPCC) Name() string { return "tpcc" }

// Key packing.
func (t *TPCC) wdOf(wid, did int64) int64 { return wid*districtsPerWH + did }
func (t *TPCC) custKey(wd, cid int64) int64 {
	return wd*int64(t.cfg.CustomersPerDistrict) + cid
}
func (t *TPCC) stockKey(wid, iid int64) int64 { return wid*int64(t.cfg.Items) + iid }
func (t *TPCC) orderKey(wd, oid int64) int64  { return wd*oidSpan + oid }
func (t *TPCC) olKey(okey, line int64) int64  { return okey*16 + line }
func (t *TPCC) custOrderKey(ck, oid int64) int64 {
	return ck*oidSpan + oid
}

// Load implements Workload.
func (t *TPCC) Load(ctx *storage.IOCtx, e *storage.Engine) error {
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
	t.warehouse = mk("tpcc_warehouse", true)
	t.district = mk("tpcc_district", true)
	t.customer = mk("tpcc_customer", true)
	t.history = mk("tpcc_history", true)
	t.order = mk("tpcc_order", true)
	t.newOrder = mk("tpcc_neworder", true)
	t.orderLine = mk("tpcc_orderline", true)
	t.item = mk("tpcc_item", true)
	t.stock = mk("tpcc_stock", true)
	t.whPK = mk("tpcc_wh_pk", false)
	t.distPK = mk("tpcc_dist_pk", false)
	t.custPK = mk("tpcc_cust_pk", false)
	t.itemPK = mk("tpcc_item_pk", false)
	t.stockPK = mk("tpcc_stock_pk", false)
	t.orderPK = mk("tpcc_order_pk", false)
	t.noPK = mk("tpcc_no_pk", false)
	t.olPK = mk("tpcc_ol_pk", false)
	t.orderCust = mk("tpcc_order_cust", false)
	if err != nil {
		return err
	}
	c := t.cfg
	const fill = 80 // pads rows toward spec widths
	nWH := int64(c.Warehouses)

	if err := e.LoadRows(ctx, t.warehouse, t.whPK, nWH,
		func(i int64) (int64, []byte) { return i, rec(fill, i, 0) }); err != nil {
		return fmt.Errorf("tpcc: warehouses: %w", err)
	}
	// District row: {wd, nextOid, ytd}.
	if err := e.LoadRows(ctx, t.district, t.distPK, nWH*districtsPerWH,
		func(i int64) (int64, []byte) {
			return i, rec(fill, i, int64(c.InitialOrdersPerDistrict), 0)
		}); err != nil {
		return fmt.Errorf("tpcc: districts: %w", err)
	}
	// Customer row: {ck, balance, ytd, payments, deliveries}.
	if err := e.LoadRows(ctx, t.customer, t.custPK, nWH*districtsPerWH*int64(c.CustomersPerDistrict),
		func(i int64) (int64, []byte) { return i, rec(fill, i, -1000, 0, 0, 0) }); err != nil {
		return fmt.Errorf("tpcc: customers: %w", err)
	}
	// Item row: {iid, price}.
	if err := e.LoadRows(ctx, t.item, t.itemPK, int64(c.Items),
		func(i int64) (int64, []byte) { return i, rec(fill/2, i, 100+i%900) }); err != nil {
		return fmt.Errorf("tpcc: items: %w", err)
	}
	// Stock row: {skey, quantity, ytd, orders}.
	if err := e.LoadRows(ctx, t.stock, t.stockPK, nWH*int64(c.Items),
		func(i int64) (int64, []byte) { return i, rec(fill/2, i, 50+i%50, 0, 0) }); err != nil {
		return fmt.Errorf("tpcc: stock: %w", err)
	}
	// Initial orders: roughly the spec shape — the most recent 30% per
	// district are undelivered (present in NEW-ORDER).
	rng := rand.New(rand.NewSource(42))
	for wd := int64(0); wd < nWH*districtsPerWH; wd++ {
		wd := wd
		err := withTx(ctx, e, func(tx *storage.Tx) error {
			for oid := int64(0); oid < int64(c.InitialOrdersPerDistrict); oid++ {
				cid := rng.Int63n(int64(c.CustomersPerDistrict))
				if err := t.insertOrder(ctx, e, tx, wd, oid, cid, rng,
					oid >= int64(c.InitialOrdersPerDistrict*7/10)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("tpcc: orders for wd %d: %w", wd, err)
		}
	}
	return nil
}

// insertOrder creates an order with lines (and a NEW-ORDER entry when
// undelivered).
func (t *TPCC) insertOrder(ctx *storage.IOCtx, e *storage.Engine, tx *storage.Tx,
	wd, oid, cid int64, rng *rand.Rand, undelivered bool) error {
	okey := t.orderKey(wd, oid)
	nOL := int64(5 + rng.Intn(11))
	carrier := int64(1 + rng.Intn(10))
	if undelivered {
		carrier = 0
	}
	rid, err := e.Insert(ctx, tx, t.order, rec(8, okey, cid, nOL, carrier))
	if err != nil {
		return err
	}
	if err := e.IdxInsert(ctx, tx, t.orderPK, okey, rid); err != nil {
		return err
	}
	ck := t.custKey(wd, cid)
	if err := e.IdxInsert(ctx, tx, t.orderCust, t.custOrderKey(ck, oid), rid); err != nil {
		return err
	}
	if undelivered {
		norid, err := e.Insert(ctx, tx, t.newOrder, rec(0, okey))
		if err != nil {
			return err
		}
		if err := e.IdxInsert(ctx, tx, t.noPK, okey, norid); err != nil {
			return err
		}
	}
	for l := int64(0); l < nOL; l++ {
		iid := rng.Int63n(int64(t.cfg.Items))
		olrid, err := e.Insert(ctx, tx, t.orderLine,
			rec(16, t.olKey(okey, l), iid, int64(1+rng.Intn(10)), 100+iid%900, carrier))
		if err != nil {
			return err
		}
		if err := e.IdxInsert(ctx, tx, t.olPK, t.olKey(okey, l), olrid); err != nil {
			return err
		}
	}
	return nil
}

// RunOne implements Workload with the spec mix.
func (t *TPCC) RunOne(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	roll := rng.Intn(100)
	var err error
	switch {
	case roll < 45:
		err = t.newOrderTx(ctx, e, rng)
	case roll < 88:
		err = t.paymentTx(ctx, e, rng)
	case roll < 92:
		err = t.orderStatusTx(ctx, e, rng)
	case roll < 96:
		err = t.deliveryTx(ctx, e, rng)
	default:
		err = t.stockLevelTx(ctx, e, rng)
	}
	if errors.Is(err, errRollback) {
		return nil // intentional abort: the transaction still "completed"
	}
	return err
}

func (t *TPCC) pick(rng *rand.Rand) (wid, did, cid int64) {
	return rng.Int63n(int64(t.cfg.Warehouses)),
		rng.Int63n(districtsPerWH),
		rng.Int63n(int64(t.cfg.CustomersPerDistrict))
}

func (t *TPCC) newOrderTx(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	wid, did, cid := t.pick(rng)
	wd := t.wdOf(wid, did)
	rollback := rng.Intn(100) == 0
	return withTx(ctx, e, func(tx *storage.Tx) error {
		if _, _, err := fetchByKey(ctx, e, tx, t.whPK, wid); err != nil {
			return err
		}
		drid, drow, err := fetchByKeyU(ctx, e, tx, t.distPK, wd)
		if err != nil {
			return err
		}
		oid := field(drow, 1)
		setField(drow, 1, oid+1)
		if err := e.Update(ctx, tx, drid, drow); err != nil {
			return err
		}
		if _, _, err := fetchByKey(ctx, e, tx, t.custPK, t.custKey(wd, cid)); err != nil {
			return err
		}
		okey := t.orderKey(wd, oid)
		nOL := int64(5 + rng.Intn(11))
		orid, err := e.Insert(ctx, tx, t.order, rec(8, okey, cid, nOL, 0))
		if err != nil {
			return err
		}
		if err := e.IdxInsert(ctx, tx, t.orderPK, okey, orid); err != nil {
			return err
		}
		if err := e.IdxInsert(ctx, tx, t.orderCust,
			t.custOrderKey(t.custKey(wd, cid), oid), orid); err != nil {
			return err
		}
		norid, err := e.Insert(ctx, tx, t.newOrder, rec(0, okey))
		if err != nil {
			return err
		}
		if err := e.IdxInsert(ctx, tx, t.noPK, okey, norid); err != nil {
			return err
		}
		for l := int64(0); l < nOL; l++ {
			iid := rng.Int63n(int64(t.cfg.Items))
			// 1% of warehouses are remote for a line (spec 2.4.1.8).
			swid := wid
			if t.cfg.Warehouses > 1 && rng.Intn(100) == 0 {
				swid = (wid + 1 + rng.Int63n(int64(t.cfg.Warehouses-1))) % int64(t.cfg.Warehouses)
			}
			if rollback && l == nOL-1 {
				return errRollback // invalid item aborts the order
			}
			_, irow, err := fetchByKey(ctx, e, tx, t.itemPK, iid)
			if err != nil {
				return err
			}
			srid, srow, err := fetchByKeyU(ctx, e, tx, t.stockPK, t.stockKey(swid, iid))
			if err != nil {
				return err
			}
			qty := int64(1 + rng.Intn(10))
			have := field(srow, 1)
			if have-qty < 10 {
				have += 91
			}
			setField(srow, 1, have-qty)
			setField(srow, 2, field(srow, 2)+qty)
			setField(srow, 3, field(srow, 3)+1)
			if err := e.Update(ctx, tx, srid, srow); err != nil {
				return err
			}
			olrid, err := e.Insert(ctx, tx, t.orderLine,
				rec(16, t.olKey(okey, l), iid, qty, qty*field(irow, 1), 0))
			if err != nil {
				return err
			}
			if err := e.IdxInsert(ctx, tx, t.olPK, t.olKey(okey, l), olrid); err != nil {
				return err
			}
		}
		return nil
	})
}

func (t *TPCC) paymentTx(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	wid, did, cid := t.pick(rng)
	wd := t.wdOf(wid, did)
	// 15% of payments hit a remote customer (spec 2.5.1.2).
	cwd := wd
	if t.cfg.Warehouses > 1 && rng.Intn(100) < 15 {
		rw := (wid + 1 + rng.Int63n(int64(t.cfg.Warehouses-1))) % int64(t.cfg.Warehouses)
		cwd = t.wdOf(rw, rng.Int63n(districtsPerWH))
	}
	amount := int64(100 + rng.Intn(500000))
	return withTx(ctx, e, func(tx *storage.Tx) error {
		wrid, wrow, err := fetchByKeyU(ctx, e, tx, t.whPK, wid)
		if err != nil {
			return err
		}
		setField(wrow, 1, field(wrow, 1)+amount)
		if err := e.Update(ctx, tx, wrid, wrow); err != nil {
			return err
		}
		drid, drow, err := fetchByKeyU(ctx, e, tx, t.distPK, wd)
		if err != nil {
			return err
		}
		setField(drow, 2, field(drow, 2)+amount)
		if err := e.Update(ctx, tx, drid, drow); err != nil {
			return err
		}
		crid, crow, err := fetchByKeyU(ctx, e, tx, t.custPK, t.custKey(cwd, cid))
		if err != nil {
			return err
		}
		setField(crow, 1, field(crow, 1)-amount)
		setField(crow, 3, field(crow, 3)+1)
		if err := e.Update(ctx, tx, crid, crow); err != nil {
			return err
		}
		_, err = e.Insert(ctx, tx, t.history, rec(24, t.custKey(cwd, cid), wd, amount))
		return err
	})
}

func (t *TPCC) orderStatusTx(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	wid, did, cid := t.pick(rng)
	ck := t.custKey(t.wdOf(wid, did), cid)
	return withTx(ctx, e, func(tx *storage.Tx) error {
		if _, _, err := fetchByKey(ctx, e, tx, t.custPK, ck); err != nil {
			return err
		}
		// Most recent order of the customer.
		var lastRID storage.RID
		found := false
		if err := e.IdxRange(ctx, t.orderCust, ck*oidSpan, (ck+1)*oidSpan-1,
			func(k int64, rid storage.RID) bool {
				lastRID = rid
				found = true
				return true
			}); err != nil {
			return err
		}
		if !found {
			return nil // customer without orders
		}
		orow, err := e.Fetch(ctx, tx, lastRID)
		if err != nil {
			if errors.Is(err, storage.ErrBadSlot) {
				return nil // the order's creator rolled back after our scan
			}
			return err
		}
		okey := field(orow, 0)
		nOL := field(orow, 2)
		for l := int64(0); l < nOL; l++ {
			if _, _, err := fetchByKey(ctx, e, tx, t.olPK, t.olKey(okey, l)); err != nil {
				if errors.Is(err, storage.ErrNoKey) || errors.Is(err, storage.ErrBadSlot) {
					return nil // ditto: uncommitted order evaporated
				}
				return err
			}
		}
		return nil
	})
}

func (t *TPCC) deliveryTx(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	wid := rng.Int63n(int64(t.cfg.Warehouses))
	carrier := int64(1 + rng.Intn(10))
	return withTx(ctx, e, func(tx *storage.Tx) error {
		for did := int64(0); did < districtsPerWH; did++ {
			wd := t.wdOf(wid, did)
			// Oldest undelivered order in the district.
			var okey int64
			var norid storage.RID
			found := false
			if err := e.IdxRange(ctx, t.noPK, t.orderKey(wd, 0), t.orderKey(wd+1, 0)-1,
				func(k int64, rid storage.RID) bool {
					okey, norid, found = k, rid, true
					return false // first = oldest
				}); err != nil {
				return err
			}
			if !found {
				continue
			}
			// Claim the order by removing its NEW-ORDER index entry first;
			// a concurrent delivery that raced us sees ErrNoKey and moves
			// on (its stale RID is never touched).
			if err := e.IdxDelete(ctx, tx, t.noPK, okey); err != nil {
				if errors.Is(err, storage.ErrNoKey) {
					continue
				}
				return err
			}
			if err := e.Delete(ctx, tx, t.newOrder, norid); err != nil {
				return err
			}
			orid, orow, err := fetchByKeyU(ctx, e, tx, t.orderPK, okey)
			if err != nil {
				return err
			}
			setField(orow, 3, carrier)
			if err := e.Update(ctx, tx, orid, orow); err != nil {
				return err
			}
			cid := field(orow, 1)
			nOL := field(orow, 2)
			var total int64
			for l := int64(0); l < nOL; l++ {
				olrid, olrow, err := fetchByKeyU(ctx, e, tx, t.olPK, t.olKey(okey, l))
				if err != nil {
					return fmt.Errorf("delivery okey=%d oid=%d wd=%d line=%d of %d cid=%d carrier=%d: %w",
						okey, okey%oidSpan, wd, l, nOL, cid, field(orow, 3), err)
				}
				total += field(olrow, 3)
				setField(olrow, 4, carrier)
				if err := e.Update(ctx, tx, olrid, olrow); err != nil {
					return err
				}
			}
			crid, crow, err := fetchByKeyU(ctx, e, tx, t.custPK, t.custKey(wd, cid))
			if err != nil {
				return err
			}
			setField(crow, 1, field(crow, 1)+total)
			setField(crow, 4, field(crow, 4)+1)
			if err := e.Update(ctx, tx, crid, crow); err != nil {
				return err
			}
		}
		return nil
	})
}

func (t *TPCC) stockLevelTx(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	wid := rng.Int63n(int64(t.cfg.Warehouses))
	did := rng.Int63n(districtsPerWH)
	wd := t.wdOf(wid, did)
	threshold := int64(10 + rng.Intn(11))
	return withTx(ctx, e, func(tx *storage.Tx) error {
		_, drow, err := fetchByKey(ctx, e, tx, t.distPK, wd)
		if err != nil {
			return err
		}
		nextOid := field(drow, 1)
		lo := nextOid - 20
		if lo < 0 {
			lo = 0
		}
		items := map[int64]struct{}{}
		if err := e.IdxRange(ctx, t.olPK,
			t.olKey(t.orderKey(wd, lo), 0), t.olKey(t.orderKey(wd, nextOid), 0)-1,
			func(k int64, rid storage.RID) bool {
				_ = e.ViewDirty(ctx, rid, func(row []byte) { items[field(row, 1)] = struct{}{} })
				return true
			}); err != nil {
			return err
		}
		// Deterministic iteration order (simulation reproducibility).
		iids := make([]int64, 0, len(items))
		for iid := range items {
			iids = append(iids, iid)
		}
		slices.Sort(iids)
		low := 0
		for _, iid := range iids {
			_, srow, err := fetchByKey(ctx, e, tx, t.stockPK, t.stockKey(wid, iid))
			if err != nil {
				return err
			}
			if field(srow, 1) < threshold {
				low++
			}
		}
		return nil
	})
}
