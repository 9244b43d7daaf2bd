package system

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/telemetry/blame"
	"noftl/internal/workload"
)

// tpcbSums is what TPC-B conserves. Every transaction adds one delta to
// a branch, a teller and an account balance and appends one history row
// carrying it, so in every committed state the four sums are equal.
type tpcbSums struct {
	branch, teller, account, history int64
	historyRows                      int64
}

// tpcbCheck scans the TPC-B tables of e and fails unless the committed
// state conserves the money.
func tpcbCheck(ctx *storage.IOCtx, e *storage.Engine) (tpcbSums, error) {
	var s tpcbSums
	for _, tbl := range []struct {
		name  string
		field int // the balance (delta for history) is the record's int64 number field
		sum   *int64
		rows  *int64
	}{
		{"tpcb_branch", 1, &s.branch, nil},
		{"tpcb_teller", 1, &s.teller, nil},
		{"tpcb_account", 1, &s.account, nil},
		{"tpcb_history", 3, &s.history, &s.historyRows},
	} {
		id, err := e.OpenTable(tbl.name)
		if err != nil {
			return s, err
		}
		err = e.Scan(ctx, id, func(_ storage.RID, rec []byte) bool {
			*tbl.sum += int64(binary.LittleEndian.Uint64(rec[tbl.field*8:]))
			if tbl.rows != nil {
				*tbl.rows++
			}
			return true
		})
		if err != nil {
			return s, err
		}
	}
	if s.branch != s.history || s.teller != s.history || s.account != s.history {
		return s, fmt.Errorf("tpcb: branch %d, teller %d, account %d and history %d sums differ",
			s.branch, s.teller, s.account, s.history)
	}
	return s, nil
}

// TestReopenEveryNoFTLStack crashes every NoFTL stack under the option
// sets the experiments use and restarts it with Reopen: once after
// serial transactions across a checkpoint, with a loser transaction
// whose dirty page reached flash, and once after a concurrent run of
// terminals, with db-writers and maintenance workers still running. Each
// restart must recover exactly the committed state.
func TestReopenEveryNoFTLStack(t *testing.T) {
	optionSets := []struct {
		name string
		opts []Option
	}{
		{name: "none"},
		{name: "scheduler+bggc", opts: []Option{WithPriorityScheduler(), WithBackgroundGC()}},
		{name: "blame", opts: []Option{WithBlame(blame.Config{})}},
	}
	for _, stack := range []Stack{StackNoFTL, StackNoFTLDelta, StackNoFTLSingle, StackNoFTLRegions} {
		for _, set := range optionSets {
			t.Run(string(stack)+"/"+set.name, func(t *testing.T) {
				sys, err := New(smallConfig(stack), set.opts...)
				if err != nil {
					t.Fatal(err)
				}
				wl := workload.NewTPCB(workload.TPCBConfig{Branches: 2, AccountsPerBranch: 200})
				if err := wl.Load(sys.Ctx, sys.Engine); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < 400; i++ {
					if err := wl.RunOne(sys.Ctx, sys.Engine, rng); err != nil {
						t.Fatalf("tx %d: %v", i, err)
					}
					if i == 150 {
						if err := sys.Engine.Checkpoint(sys.Ctx); err != nil {
							t.Fatal(err)
						}
					}
				}
				want, err := tpcbCheck(sys.Ctx, sys.Engine)
				if err != nil {
					t.Fatal(err)
				}
				stealLoserUpdate(t, sys)

				sys = reopen(t, sys)
				if got, err := tpcbCheck(sys.Ctx, sys.Engine); err != nil || got != want {
					t.Fatalf("after restart: %+v, %v; want %+v", got, err, want)
				}

				runTerminals(t, sys, wl, 50*sim.Millisecond)
				sys = reopen(t, sys)
				got, err := tpcbCheck(sys.Ctx, sys.Engine)
				if err != nil {
					t.Fatalf("after the restart following the run: %v", err)
				}
				if got.historyRows <= want.historyRows {
					t.Fatalf("history rows %d after the run, %d before: no commit survived", got.historyRows, want.historyRows)
				}
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
				if n := sys.K.Alive(); n != 0 {
					t.Fatalf("%d processes alive after Close", n)
				}
			})
		}
	}
}

// stealLoserUpdate leaves a transaction open whose update of account 0
// a buffer-pool flush has already written to the volume: the restart
// must roll it back.
func stealLoserUpdate(t *testing.T, sys *System) {
	t.Helper()
	e, ctx := sys.Engine, sys.Ctx
	pk, err := e.OpenTable("tpcb_account_pk")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	rid, found, err := e.IdxLookup(ctx, tx, pk, 0)
	if err != nil || !found {
		t.Fatalf("account 0: found=%v, %v", found, err)
	}
	row, err := e.FetchForUpdate(ctx, tx, rid)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(row[8:], binary.LittleEndian.Uint64(row[8:])+1e6)
	if err := e.Update(ctx, tx, rid, row); err != nil {
		t.Fatal(err)
	}
	if err := e.Buffer().FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
}

// reopen crashes sys and restarts it, requiring recovery to have run.
func reopen(t *testing.T, sys *System) *System {
	t.Helper()
	sys2, err := sys.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if !sys2.Engine.Recovered {
		t.Fatal("reopened engine ran no recovery")
	}
	if sys2.Ctx.W.Now() == 0 {
		t.Fatal("restart charged no time to the new system's clock")
	}
	return sys2
}

// runTerminals runs TPC-B terminals, db-writers and (on background-GC
// systems) maintenance workers for d on the system's kernel, then stops
// the terminals and lets their last transactions finish. The writers and
// workers are still running when the caller crashes the system.
//
// The terminals stop first because a write-back can put a page on flash
// holding changes whose log records are not durable yet (the known
// defect ROADMAP item 1 lists): a crash inside a transaction can still
// lose money.
func runTerminals(t *testing.T, sys *System, wl workload.Workload, d sim.Time) {
	t.Helper()
	var fatal error
	fail := func(err error) {
		if fatal == nil {
			fatal = err
		}
	}
	sys.Dev.ResetTime()
	sys.StartMaintenance(sched.MaintConfig{OnError: fail})
	sys.Engine.StartWriters(sys.K, storage.WriterConfig{N: 2})
	// A checkpointer, since the cached population commits a log page per
	// commit flush and fills a memory log several times over within the
	// run.
	sys.Engine.StartCheckpointer(sys.K, 0, fail)
	background := sys.K.Alive()
	counting := true
	terms := workload.StartTerminals(sys.K, sys.Engine, wl, workload.TerminalConfig{
		N: 4, Seed: 7, Counting: &counting, OnFatal: fail})
	sys.K.RunFor(d)
	terms.Stop()
	sys.K.RunFor(50 * sim.Millisecond)
	if fatal != nil {
		t.Fatal(fatal)
	}
	if terms.Committed() == 0 {
		t.Fatal("terminals committed nothing")
	}
	if n := sys.K.Alive(); n != background {
		t.Fatalf("%d processes alive after the terminals stopped, want the %d background ones", n, background)
	}
}

// TestReopenRefusesBlockDeviceStacks: a block-device stack's mapping is
// the device FTL's state, which a host restart cannot rebuild.
func TestReopenRefusesBlockDeviceStacks(t *testing.T) {
	for _, stack := range []Stack{StackFaster, StackDFTL, StackPagemap} {
		sys, err := New(smallConfig(stack))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Reopen(); err == nil || !strings.Contains(err.Error(), string(stack)) {
			t.Fatalf("%s: Reopen = %v, want an error naming the stack", stack, err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSingleVolumeLogDropsTruncatedPages: on the single-volume stack the
// WAL's ring deallocates what a checkpoint truncates, so the log-window
// pages below the truncation point are dead on the NoFTL volume — the GC
// drops them without copying — and only the live window stays mapped.
func TestSingleVolumeLogDropsTruncatedPages(t *testing.T) {
	sys, err := New(smallConfig(StackNoFTLSingle))
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.NewTPCB(workload.TPCBConfig{Branches: 2, AccountsPerBranch: 200})
	if err := wl.Load(sys.Ctx, sys.Engine); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		if err := wl.RunOne(sys.Ctx, sys.Engine, rng); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	if err := sys.Engine.Checkpoint(sys.Ctx); err != nil {
		t.Fatal(err)
	}
	v := sys.NoFTL
	window := logWindowPages(v.LogicalPages(), sys.Dev.Geometry().Dies())
	buf := make([]byte, sys.Dev.Geometry().PageSize)
	var mapped int64
	for lpn := int64(0); lpn < window; lpn++ {
		if err := v.Read(sys.Ctx.Req(), lpn, buf); err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(buf, func(b byte) bool { return b != 0 }) {
			mapped++
		}
	}
	// A checkpoint on a quiet system keeps the page holding its record
	// and the anchor page.
	if out := sys.Engine.Log().PagesOut; out < 300 || mapped != 2 {
		t.Fatalf("%d of the %d log pages written are still mapped after the checkpoint, want 2", mapped, out)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}
