package region

import (
	"math/rand"
	"noftl/internal/ioreq"
	"testing"

	"noftl/internal/delta"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// sumRegionStats adds up the per-region counters by name.
func sumRegionStats(m *Manager) ftl.Stats {
	var s ftl.Stats
	for _, rs := range m.RegionStats() {
		s = s.Add(rs.FTL)
	}
	return s
}

// driveMixedLoad pushes a page-mapped region through full writes, delta
// appends (with folds), invalidations and GC, and a sequential region
// through appends and truncation.
func driveMixedLoad(t *testing.T, m *Manager, seed int64, rounds int) {
	t.Helper()
	w := &sim.ClockWaiter{}
	rng := rand.New(rand.NewSource(seed))
	data := m.Volume("data")
	log := m.Log("log")
	ps := log.PageSize()
	n := data.LogicalPages()
	page := make([]byte, ps)
	var logPos int64
	for i := 0; i < rounds; i++ {
		lpn := rng.Int63n(n)
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // full page write
			rng.Read(page[:16])
			if err := data.Write(ioreq.Plain(w), lpn, page); err != nil {
				t.Fatalf("round %d write: %v", i, err)
			}
		case 5, 6, 7: // small delta append
			payload := delta.Encode([]delta.Run{{Off: int(rng.Intn(ps - 64)), Len: 16}}, page)
			if err := data.WriteDelta(ioreq.Plain(w), lpn, payload); err != nil {
				t.Fatalf("round %d delta: %v", i, err)
			}
		case 8: // DBMS invalidation
			if err := data.Invalidate(lpn); err != nil {
				t.Fatal(err)
			}
		default: // log append
			if _, err := log.Append(ioreq.Plain(w), page); err != nil {
				t.Fatalf("round %d append: %v", i, err)
			}
			logPos++
			if logPos%64 == 0 {
				if err := log.Truncate(ioreq.Plain(w), logPos-16); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRegionStatsSumToDeviceTotals is the accounting audit: with no
// failure injection, every erase, copyback, program and partial program
// the device observed must be attributed to exactly one region — across
// data-region GC, delta folds and log truncation.
func TestRegionStatsSumToDeviceTotals(t *testing.T) {
	dev := testDevice(t, 4, nand.Options{})
	m, err := New(dev, DefaultDBLayout(1), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	driveMixedLoad(t, m, 11, 6000)

	sum := sumRegionStats(m)
	if agg := m.Stats(); agg != sum {
		t.Fatalf("aggregate %+v != region sum %+v", agg, sum)
	}
	devStats := dev.Stats()
	if got, want := sum.Erases, devStats.Erases; got != want {
		t.Errorf("region erases %d, device saw %d", got, want)
	}
	if got, want := sum.GCCopybacks, devStats.Copybacks; got != want {
		t.Errorf("region copybacks %d, device saw %d", got, want)
	}
	if got, want := sum.HostWrites+sum.GCWrites, devStats.Programs; got != want {
		t.Errorf("region programs %d, device saw %d", got, want)
	}
	if got, want := sum.DeltaWrites, devStats.PartialPrograms; got != want {
		t.Errorf("region partial programs %d, device saw %d", got, want)
	}
	if sum.Folds == 0 {
		t.Error("mixed load folded no delta chains; accounting path untested")
	}
	if sum.Erases == 0 {
		t.Error("mixed load triggered no erases; accounting path untested")
	}

	// The log region must have done zero relocation work: its GC is
	// truncation.
	for _, rs := range m.RegionStats() {
		if rs.Mapping == SeqMapped && (rs.FTL.GCCopybacks != 0 || rs.FTL.GCWrites != 0) {
			t.Errorf("log region did GC copies: %+v", rs.FTL)
		}
		if rs.Occupancy() < 0 || rs.Occupancy() > 1 {
			t.Errorf("region %s occupancy %.3f out of range", rs.Name, rs.Occupancy())
		}
	}
}

// TestRegionStatsConsistentUnderBadBlocks repeats the audit with grown
// bad blocks: device totals now include failed operations the regions
// roll back, so the check is internal consistency — the aggregate still
// equals the per-region sum, salvage work is visible, and both regions
// stay functional.
func TestRegionStatsConsistentUnderBadBlocks(t *testing.T) {
	dev := testDevice(t, 4, nand.Options{ProgramFailProb: 0.001, Seed: 3})
	m, err := New(dev, DefaultDBLayout(1), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	driveMixedLoad(t, m, 13, 5000)

	sum := sumRegionStats(m)
	if agg := m.Stats(); agg != sum {
		t.Fatalf("aggregate %+v != region sum %+v", agg, sum)
	}
	if dev.Array().Counters().GrownBad == 0 {
		t.Error("no block grew bad; salvage accounting untested (adjust seed)")
	}
	// Successful programs can never exceed device attempts, and the
	// regions must account at least the successes.
	devStats := dev.Stats()
	if sum.HostWrites+sum.GCWrites > devStats.Programs {
		t.Errorf("regions claim %d programs, device only saw %d",
			sum.HostWrites+sum.GCWrites, devStats.Programs)
	}
	if sum.Erases > devStats.Erases {
		t.Errorf("regions claim %d erases, device only saw %d", sum.Erases, devStats.Erases)
	}
}
