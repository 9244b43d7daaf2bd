package workload

import (
	"testing"

	"noftl/internal/storage"
)

// countRows scans a table and returns its row count.
func countRows(t *testing.T, e *storage.Engine, ctx *storage.IOCtx, name string) int64 {
	t.Helper()
	tbl, err := e.OpenTable(name)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := e.Scan(ctx, tbl, func(storage.RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTPCHSeedThreading is the satellite regression: the analytical
// workloads must honour the configured seed instead of a compiled-in
// constant — identical seeds reproduce the population exactly,
// different seeds change it.
func TestTPCHSeedThreading(t *testing.T) {
	load := func(seed int64) int64 {
		e, ctx := newMemEngine(t)
		wl := NewTPCH(TPCHConfig{ScaleFactor: 1, Seed: seed})
		if err := wl.Load(ctx, e); err != nil {
			t.Fatal(err)
		}
		return countRows(t, e, ctx, "tpch_lineitem")
	}
	a1, a2, b := load(3), load(3), load(4)
	if a1 != a2 {
		t.Fatalf("same seed, different lineitem populations: %d vs %d", a1, a2)
	}
	if a1 == b {
		t.Fatalf("different seeds produced identical lineitem populations (%d rows): seed not threaded", a1)
	}
	// The zero seed keeps the historical default (7), not Go's default
	// source: it must still be deterministic.
	if NewTPCH(TPCHConfig{}).cfg.Seed != 7 {
		t.Fatal("unset TPCH seed did not default to 7")
	}
}

// TestTPCELoadSeed pins the seed of TPC-E's initial trade history, the
// one Figure 3's TPC-E rows were recorded with.
func TestTPCELoadSeed(t *testing.T) {
	if tpceLoadSeed != 17 {
		t.Fatalf("TPC-E load seed = %d, want 17", tpceLoadSeed)
	}
}
