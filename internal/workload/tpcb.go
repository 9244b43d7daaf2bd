package workload

import (
	"fmt"
	"math/rand"

	"noftl/internal/storage"
)

// TPCBConfig scales the TPC-B schema. The spec's ratios are 1 branch :
// 10 tellers : 100,000 accounts; AccountsPerBranch shrinks the account
// population for simulation while keeping the access pattern (uniform
// account updates, branch/teller hotspots, append-only history).
type TPCBConfig struct {
	// Branches is the scale factor (sf).
	Branches int
	// AccountsPerBranch defaults to 1000 (spec: 100,000).
	AccountsPerBranch int
}

const (
	// tpcbTellersPerBranch is the spec's ratio.
	tpcbTellersPerBranch = 10
	// tpcbFiller pads records towards the spec's 100-byte rows.
	tpcbFiller = 64
)

func (c TPCBConfig) withDefaults() TPCBConfig {
	if c.Branches <= 0 {
		c.Branches = 1
	}
	if c.AccountsPerBranch <= 0 {
		c.AccountsPerBranch = 1000
	}
	return c
}

// TPCB is the TPC-B benchmark: the canonical update-heavy OLTP workload
// (3 balance updates + 1 history insert per transaction).
type TPCB struct {
	cfg  TPCBConfig
	name string // table/index prefix and workload name ("tpcb")

	branches, tellers, accounts, history uint32
	branchPK, tellerPK, accountPK        uint32
}

// NewTPCB creates a TPC-B workload.
func NewTPCB(cfg TPCBConfig) *TPCB { return &TPCB{cfg: cfg.withDefaults(), name: "tpcb"} }

// NewTPCBNamed creates a TPC-B workload with its own table-name prefix,
// so several independent instances (multi-tenant experiments) can load
// side by side in one engine.
func NewTPCBNamed(name string, cfg TPCBConfig) *TPCB {
	return &TPCB{cfg: cfg.withDefaults(), name: name}
}

// Name implements Workload.
func (t *TPCB) Name() string { return t.name }

// Load implements Workload.
func (t *TPCB) Load(ctx *storage.IOCtx, e *storage.Engine) error {
	var err error
	mk := func(name string) uint32 {
		if err != nil {
			return 0
		}
		var id uint32
		id, err = e.CreateTable(ctx, name)
		return id
	}
	mkIdx := func(name string) uint32 {
		if err != nil {
			return 0
		}
		var id uint32
		id, err = e.CreateIndex(ctx, name)
		return id
	}
	t.branches = mk(t.name + "_branch")
	t.tellers = mk(t.name + "_teller")
	t.accounts = mk(t.name + "_account")
	t.history = mk(t.name + "_history")
	t.branchPK = mkIdx(t.name + "_branch_pk")
	t.tellerPK = mkIdx(t.name + "_teller_pk")
	t.accountPK = mkIdx(t.name + "_account_pk")
	if err != nil {
		return err
	}
	c := t.cfg
	if err := e.LoadRows(ctx, t.branches, t.branchPK, int64(c.Branches),
		func(i int64) (int64, []byte) { return i, rec(tpcbFiller, i, 0) }); err != nil {
		return fmt.Errorf("tpcb: load branches: %w", err)
	}
	if err := e.LoadRows(ctx, t.tellers, t.tellerPK, int64(c.Branches*tpcbTellersPerBranch),
		func(i int64) (int64, []byte) { return i, rec(tpcbFiller, i, 0) }); err != nil {
		return fmt.Errorf("tpcb: load tellers: %w", err)
	}
	if err := e.LoadRows(ctx, t.accounts, t.accountPK, int64(c.Branches*c.AccountsPerBranch),
		func(i int64) (int64, []byte) { return i, rec(tpcbFiller, i, 0) }); err != nil {
		return fmt.Errorf("tpcb: load accounts: %w", err)
	}
	return nil
}

// RunOne implements Workload: the standard TPC-B transaction profile.
func (t *TPCB) RunOne(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	c := t.cfg
	bid := rng.Int63n(int64(c.Branches))
	tid := bid*tpcbTellersPerBranch + rng.Int63n(tpcbTellersPerBranch)
	// 85% of accounts belong to the teller's branch, 15% are remote
	// (spec clause 5.3.5); with one branch everything is local.
	var aid int64
	if c.Branches > 1 && rng.Intn(100) < 15 {
		remote := (bid + 1 + rng.Int63n(int64(c.Branches-1))) % int64(c.Branches)
		aid = remote*int64(c.AccountsPerBranch) + rng.Int63n(int64(c.AccountsPerBranch))
	} else {
		aid = bid*int64(c.AccountsPerBranch) + rng.Int63n(int64(c.AccountsPerBranch))
	}
	delta := rng.Int63n(1999999) - 999999

	return withTx(ctx, e, func(tx *storage.Tx) error {
		for _, upd := range []struct {
			idx uint32
			key int64
		}{
			{t.accountPK, aid},
			{t.tellerPK, tid},
			{t.branchPK, bid},
		} {
			rid, row, err := fetchByKeyU(ctx, e, tx, upd.idx, upd.key)
			if err != nil {
				return err
			}
			setField(row, 1, field(row, 1)+delta)
			if err := e.Update(ctx, tx, rid, row); err != nil {
				return err
			}
		}
		h := tx.Scratch(4*8 + 22) // rec(22, aid, tid, bid, delta) without the allocation
		for i, v := range [...]int64{aid, tid, bid, delta} {
			setField(h, i, v)
		}
		_, err := e.Insert(ctx, tx, t.history, h)
		return err
	})
}
