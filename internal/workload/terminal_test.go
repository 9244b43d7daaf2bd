package workload

import (
	"fmt"
	"strings"
	"testing"

	"noftl/internal/sim"
	"noftl/internal/storage"
)

func terminalTestEngine(t *testing.T) (*storage.Engine, *storage.IOCtx) {
	t.Helper()
	ctx := storage.NewIOCtx(&sim.ClockWaiter{})
	data := storage.NewMemVolume(4096, 1<<13)
	log := storage.NewMemVolume(4096, 1<<12)
	if err := storage.Format(ctx, data, log); err != nil {
		t.Fatal(err)
	}
	e, err := storage.Open(ctx, data, log, storage.EngineConfig{BufferFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	return e, ctx
}

// TestTerminalsRunConcurrently checks the multi-terminal layer: N
// closed-loop terminals commit transactions, the counting gate excludes
// warm-up, and the merged histogram matches the committed count.
func TestTerminalsRunConcurrently(t *testing.T) {
	e, ctx := terminalTestEngine(t)
	wl := NewTPCB(TPCBConfig{Branches: 4, AccountsPerBranch: 200})
	if err := wl.Load(ctx, e); err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	counting := false
	var fatal error
	// Think time lets simulated time pass: the memory volumes are
	// zero-latency, so a pure closed loop would commit without end at
	// one instant.
	ts := StartTerminals(k, e, wl, TerminalConfig{
		N:        4,
		Seed:     42,
		Think:    200 * sim.Microsecond,
		Counting: &counting,
		OnFatal:  func(err error) { fatal = err },
	})
	stopCkpt := e.StartCheckpointer(k, 0, func(err error) { fatal = err })
	k.RunFor(50 * sim.Millisecond) // warm-up: not counted
	warm := ts.Committed()
	counting = true
	k.RunFor(200 * sim.Millisecond)
	counting = false
	ts.Stop()
	stopCkpt()
	k.RunFor(5 * sim.Millisecond)
	k.Shutdown()

	if fatal != nil {
		t.Fatal(fatal)
	}
	if warm != 0 {
		t.Fatalf("warm-up transactions counted: %d", warm)
	}
	n := ts.Committed()
	if n == 0 {
		t.Fatal("no transactions committed")
	}
	// String leads with the sample count.
	if h := ts.CommitHist(); !strings.HasPrefix(h.String(), fmt.Sprintf("n=%d ", n)) {
		t.Fatalf("histogram %s != committed %d", h.String(), n)
	}
	perTerm := int64(0)
	for _, term := range ts.All {
		perTerm += term.Committed
	}
	if perTerm != n {
		t.Fatalf("per-terminal sum %d != total %d", perTerm, n)
	}
}

// TestTerminalsThinkTime checks that think time throttles the loop.
func TestTerminalsThinkTime(t *testing.T) {
	e, ctx := terminalTestEngine(t)
	wl := NewTPCB(TPCBConfig{Branches: 2, AccountsPerBranch: 100})
	if err := wl.Load(ctx, e); err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	ts := StartTerminals(k, e, wl, TerminalConfig{N: 1, Seed: 1, Think: 10 * sim.Millisecond})
	k.RunFor(100 * sim.Millisecond)
	ts.Stop()
	k.RunFor(15 * sim.Millisecond)
	k.Shutdown()
	if n := ts.Committed(); n == 0 || n > 12 {
		t.Fatalf("committed = %d, want ~10 with 10ms think time", n)
	}
}
