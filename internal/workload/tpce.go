package workload

import (
	"fmt"
	"math/rand"

	"noftl/internal/storage"
)

// TPCEConfig scales the TPC-E-like workload: a brokerage schema with the
// spec's ~77/23 read/write transaction split, which makes it the
// read-mostly counterpart to TPC-B/-C in the paper's Figure 3.
type TPCEConfig struct {
	// Customers is the scale factor (the paper runs 1000 customers).
	Customers int
	// Securities defaults to 100.
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	Securities int
}

func (c TPCEConfig) withDefaults() TPCEConfig {
	if c.Customers <= 0 {
		c.Customers = 100
	}
	if c.Securities <= 0 {
		c.Securities = 100
	}
	return c
}

// TPCE is a TPC-E-like brokerage workload. Transaction mix (trade-order
// and trade-result are the write path, ~23%):
//
//	TradeOrder 12%, TradeResult 11%, TradeStatus 25%,
//	CustomerPosition 27%, MarketWatch 25%
type TPCE struct {
	cfg TPCEConfig

	customer, account, security, tradeTbl uint32
	custPK, acctPK, secPK, tradePK        uint32
	tradeAcct                             uint32
	nextTrade                             int64
}

// NewTPCE creates the workload.
func NewTPCE(cfg TPCEConfig) *TPCE { return &TPCE{cfg: cfg.withDefaults()} }

// Name implements Workload.
func (t *TPCE) Name() string { return "tpce" }

const (
	tradeSpan               = int64(1 << 24)
	tpceAccountsPerCustomer = 2
	// tpceInitialTradesPerAccount populates the trade history at load
	// time (TPC-E ships with a large initial TRADE table).
	tpceInitialTradesPerAccount = 10
	tpceFiller                  = 80 // pads rows
	// tpceLoadSeed drives the load-time population RNG (initial trade
	// history).
	tpceLoadSeed = 17
)

// Load implements Workload.
func (t *TPCE) Load(ctx *storage.IOCtx, e *storage.Engine) error {
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
	t.customer = mk("tpce_customer", true)
	t.account = mk("tpce_account", true)
	t.security = mk("tpce_security", true)
	t.tradeTbl = mk("tpce_trade", true)
	t.custPK = mk("tpce_cust_pk", false)
	t.acctPK = mk("tpce_acct_pk", false)
	t.secPK = mk("tpce_sec_pk", false)
	t.tradePK = mk("tpce_trade_pk", false)
	t.tradeAcct = mk("tpce_trade_acct", false)
	if err != nil {
		return err
	}
	c := t.cfg
	if err := e.LoadRows(ctx, t.customer, t.custPK, int64(c.Customers),
		func(i int64) (int64, []byte) { return i, rec(tpceFiller, i, 0) }); err != nil {
		return fmt.Errorf("tpce: customers: %w", err)
	}
	// Account row: {aid, balance, holdings}.
	if err := e.LoadRows(ctx, t.account, t.acctPK, int64(c.Customers*tpceAccountsPerCustomer),
		func(i int64) (int64, []byte) { return i, rec(tpceFiller, i, 1_000_000, 0) }); err != nil {
		return fmt.Errorf("tpce: accounts: %w", err)
	}
	// Security row: {sid, price, volume}.
	if err := e.LoadRows(ctx, t.security, t.secPK, int64(c.Securities),
		func(i int64) (int64, []byte) { return i, rec(tpceFiller, i, 100+i%400, 0) }); err != nil {
		return fmt.Errorf("tpce: securities: %w", err)
	}
	// Initial trade history: completed trades spread over accounts.
	nTrades := t.accounts() * tpceInitialTradesPerAccount
	rng := rand.New(rand.NewSource(tpceLoadSeed))
	for start := int64(0); start < nTrades; start += 500 {
		end := start + 500
		if end > nTrades {
			end = nTrades
		}
		err := withTx(ctx, e, func(tx *storage.Tx) error {
			for tid := start; tid < end; tid++ {
				aid := tid % t.accounts()
				sid := rng.Int63n(int64(c.Securities))
				trid, err := e.Insert(ctx, tx, t.tradeTbl,
					rec(tpceFiller, tid, aid, sid, int64(1+rng.Intn(100)), 1))
				if err != nil {
					return err
				}
				if err := e.IdxInsert(ctx, tx, t.tradePK, tid, trid); err != nil {
					return err
				}
				if err := e.IdxInsert(ctx, tx, t.tradeAcct, aid*tradeSpan+tid, trid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("tpce: trades: %w", err)
		}
	}
	t.nextTrade = nTrades
	return nil
}

func (t *TPCE) accounts() int64 {
	return int64(t.cfg.Customers * tpceAccountsPerCustomer)
}

// RunOne implements Workload.
func (t *TPCE) RunOne(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	roll := rng.Intn(100)
	switch {
	case roll < 12:
		return t.tradeOrder(ctx, e, rng)
	case roll < 23:
		return t.tradeResult(ctx, e, rng)
	case roll < 48:
		return t.tradeStatus(ctx, e, rng)
	case roll < 75:
		return t.customerPosition(ctx, e, rng)
	default:
		return t.marketWatch(ctx, e, rng)
	}
}

// tradeOrder inserts a trade and debits the account (write).
func (t *TPCE) tradeOrder(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	aid := rng.Int63n(t.accounts())
	sid := rng.Int63n(int64(t.cfg.Securities))
	qty := int64(1 + rng.Intn(100))
	return withTx(ctx, e, func(tx *storage.Tx) error {
		arid, arow, err := fetchByKeyU(ctx, e, tx, t.acctPK, aid)
		if err != nil {
			return err
		}
		_, srow, err := fetchByKey(ctx, e, tx, t.secPK, sid)
		if err != nil {
			return err
		}
		cost := qty * field(srow, 1)
		setField(arow, 1, field(arow, 1)-cost)
		if err := e.Update(ctx, tx, arid, arow); err != nil {
			return err
		}
		tid := t.nextTrade
		t.nextTrade++
		// Trade row: {tid, aid, sid, qty, status(0=pending)}.
		trid, err := e.Insert(ctx, tx, t.tradeTbl, rec(tpceFiller, tid, aid, sid, qty, 0))
		if err != nil {
			return err
		}
		if err := e.IdxInsert(ctx, tx, t.tradePK, tid, trid); err != nil {
			return err
		}
		return e.IdxInsert(ctx, tx, t.tradeAcct, aid*tradeSpan+tid, trid)
	})
}

// tradeResult completes a pending trade and bumps the security volume
// (write).
func (t *TPCE) tradeResult(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	if t.nextTrade == 0 {
		return t.tradeOrder(ctx, e, rng) // nothing pending yet
	}
	tid := rng.Int63n(t.nextTrade)
	return withTx(ctx, e, func(tx *storage.Tx) error {
		trid, trow, err := fetchByKeyU(ctx, e, tx, t.tradePK, tid)
		if err != nil {
			return err
		}
		setField(trow, 4, 1) // completed
		if err := e.Update(ctx, tx, trid, trow); err != nil {
			return err
		}
		srid, srow, err := fetchByKeyU(ctx, e, tx, t.secPK, field(trow, 2))
		if err != nil {
			return err
		}
		setField(srow, 2, field(srow, 2)+field(trow, 3))
		if err := e.Update(ctx, tx, srid, srow); err != nil {
			return err
		}
		arid, arow, err := fetchByKeyU(ctx, e, tx, t.acctPK, field(trow, 1))
		if err != nil {
			return err
		}
		setField(arow, 2, field(arow, 2)+field(trow, 3))
		return e.Update(ctx, tx, arid, arow)
	})
}

// tradeStatus reads an account's recent trades (read-only).
func (t *TPCE) tradeStatus(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	aid := rng.Int63n(t.accounts())
	return withTx(ctx, e, func(tx *storage.Tx) error {
		n := 0
		return e.IdxRange(ctx, t.tradeAcct, aid*tradeSpan, (aid+1)*tradeSpan-1,
			func(k int64, rid storage.RID) bool {
				if err := e.ViewDirty(ctx, rid, func([]byte) {}); err != nil {
					return false
				}
				n++
				return n < 20
			})
	})
}

// customerPosition reads a customer's accounts and holdings (read-only).
func (t *TPCE) customerPosition(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	cid := rng.Int63n(int64(t.cfg.Customers))
	return withTx(ctx, e, func(tx *storage.Tx) error {
		if _, _, err := fetchByKey(ctx, e, tx, t.custPK, cid); err != nil {
			return err
		}
		for a := int64(0); a < tpceAccountsPerCustomer; a++ {
			aid := cid*tpceAccountsPerCustomer + a
			if _, _, err := fetchByKey(ctx, e, tx, t.acctPK, aid); err != nil {
				return err
			}
		}
		return nil
	})
}

// marketWatch reads a basket of securities (read-only).
func (t *TPCE) marketWatch(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	return withTx(ctx, e, func(tx *storage.Tx) error {
		start := rng.Int63n(int64(t.cfg.Securities))
		for i := int64(0); i < 10; i++ {
			sid := (start + i) % int64(t.cfg.Securities)
			if _, _, err := fetchByKey(ctx, e, tx, t.secPK, sid); err != nil {
				return err
			}
		}
		return nil
	})
}
