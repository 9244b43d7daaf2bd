package workload

import (
	"math/rand"
	"testing"

	"noftl/internal/storage"
)

func newMemEngine(t *testing.T) (*storage.Engine, *storage.IOCtx) {
	t.Helper()
	data := storage.NewMemVolume(4096, 1<<16)
	logv := storage.NewMemVolume(4096, 1<<14)
	ctx := storage.NewIOCtx(nil)
	if err := storage.Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := storage.Open(ctx, data, logv, storage.EngineConfig{BufferFrames: 512})
	if err != nil {
		t.Fatal(err)
	}
	return e, ctx
}

// runN executes n transactions, failing the test on any error.
func runN(t *testing.T, wl Workload, e *storage.Engine, ctx *storage.IOCtx, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := wl.RunOne(ctx, e, rng); err != nil {
			t.Fatalf("%s tx %d: %v", wl.Name(), i, err)
		}
	}
}

func TestTPCBLoadAndRun(t *testing.T) {
	e, ctx := newMemEngine(t)
	wl := NewTPCB(TPCBConfig{Branches: 2, AccountsPerBranch: 200})
	if err := wl.Load(ctx, e); err != nil {
		t.Fatal(err)
	}
	before := e.Commits
	runN(t, wl, e, ctx, 200, 1)
	if e.Commits-before != 200 {
		t.Errorf("commits = %d, want 200", e.Commits-before)
	}
	// Balance conservation: sum of branch balances equals sum of account
	// plus teller deltas is not directly checkable without replaying, but
	// the history table must hold exactly one row per transaction.
	tbl, err := e.OpenTable("tpcb_history")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := e.Scan(ctx, tbl, func(rid storage.RID, rec []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Errorf("history rows = %d, want 200", count)
	}
}

func TestTPCBBalanceConsistency(t *testing.T) {
	// The three balance updates use the same delta: the sum over branch
	// balances must equal the sum over history deltas.
	e, ctx := newMemEngine(t)
	wl := NewTPCB(TPCBConfig{Branches: 2, AccountsPerBranch: 100})
	if err := wl.Load(ctx, e); err != nil {
		t.Fatal(err)
	}
	runN(t, wl, e, ctx, 300, 2)
	var branchSum, histSum int64
	tbl, _ := e.OpenTable("tpcb_branch")
	_ = e.Scan(ctx, tbl, func(rid storage.RID, rec []byte) bool {
		branchSum += field(rec, 1)
		return true
	})
	htbl, _ := e.OpenTable("tpcb_history")
	_ = e.Scan(ctx, htbl, func(rid storage.RID, rec []byte) bool {
		histSum += field(rec, 3)
		return true
	})
	if branchSum != histSum {
		t.Errorf("branch sum %d != history sum %d", branchSum, histSum)
	}
}

func TestTPCCLoadAndRun(t *testing.T) {
	e, ctx := newMemEngine(t)
	wl := NewTPCC(TPCCConfig{Warehouses: 1, CustomersPerDistrict: 30,
		Items: 100, InitialOrdersPerDistrict: 10})
	if err := wl.Load(ctx, e); err != nil {
		t.Fatal(err)
	}
	runN(t, wl, e, ctx, 300, 3)
	if e.Commits == 0 {
		t.Fatal("no commits")
	}
	// District next-order ids only grow; orders must exist for each id
	// below next_o_id.
	dtbl, _ := e.OpenTable("tpcc_district")
	opk, _ := e.OpenTable("tpcc_order_pk")
	bad := 0
	_ = e.Scan(ctx, dtbl, func(rid storage.RID, rec []byte) bool {
		wd := field(rec, 0)
		next := field(rec, 1)
		for oid := int64(0); oid < next; oid++ {
			if _, found, _ := e.IdxLookup(ctx, nil, opk, wd*oidSpan+oid); !found {
				bad++
			}
		}
		return true
	})
	if bad != 0 {
		t.Errorf("%d order ids missing below next_o_id", bad)
	}
}

func TestTPCCMultiWarehouse(t *testing.T) {
	e, ctx := newMemEngine(t)
	wl := NewTPCC(TPCCConfig{Warehouses: 2, CustomersPerDistrict: 20,
		Items: 50, InitialOrdersPerDistrict: 5})
	if err := wl.Load(ctx, e); err != nil {
		t.Fatal(err)
	}
	runN(t, wl, e, ctx, 200, 4)
}

func TestTPCELoadAndRun(t *testing.T) {
	e, ctx := newMemEngine(t)
	wl := NewTPCE(TPCEConfig{Customers: 50, Securities: 40})
	if err := wl.Load(ctx, e); err != nil {
		t.Fatal(err)
	}
	runN(t, wl, e, ctx, 400, 5)
	// TPC-E is read-mostly: beyond the initial trade history, growth
	// must stay a minority of the 400 transactions.
	initial := tpceAccountsPerCustomer * 50 * tpceInitialTradesPerAccount
	ttbl, _ := e.OpenTable("tpce_trade")
	trades := 0
	_ = e.Scan(ctx, ttbl, func(rid storage.RID, rec []byte) bool { trades++; return true })
	grown := trades - initial
	if grown <= 0 {
		t.Errorf("no trades inserted (total %d, initial %d)", trades, initial)
	}
	if grown > 200 {
		t.Errorf("trades grew by %d of 400 txs; mix too write-heavy", grown)
	}
}

func TestTPCHLoadAndQueries(t *testing.T) {
	e, ctx := newMemEngine(t)
	wl := NewTPCH(TPCHConfig{ScaleFactor: 1})
	if err := wl.Load(ctx, e); err != nil {
		t.Fatal(err)
	}
	runN(t, wl, e, ctx, 6, 6) // two rounds of Q1/Q6/Q3
}

func TestWorkloadDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		e, ctx := newMemEngine(t)
		wl := NewTPCB(TPCBConfig{Branches: 1, AccountsPerBranch: 50})
		if err := wl.Load(ctx, e); err != nil {
			t.Fatal(err)
		}
		runN(t, wl, e, ctx, 100, 99)
		var sum int64
		tbl, _ := e.OpenTable("tpcb_account")
		_ = e.Scan(ctx, tbl, func(rid storage.RID, rec []byte) bool {
			sum += field(rec, 1)
			return true
		})
		return sum, e.Commits
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Errorf("same seed diverged: sums %d/%d commits %d/%d", s1, s2, c1, c2)
	}
}
