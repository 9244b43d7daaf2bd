package serve

import (
	"errors"
	"fmt"
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

func serveTestEngine(t *testing.T) (*storage.Engine, *storage.IOCtx) {
	t.Helper()
	ctx := storage.NewIOCtx(&sim.ClockWaiter{})
	data := storage.NewMemVolume(4096, 1<<13)
	log := storage.NewMemVolume(4096, 1<<14) // a page per flush, no checkpointer
	if err := storage.Format(ctx, data, log); err != nil {
		t.Fatal(err)
	}
	e, err := storage.Open(ctx, data, log, storage.EngineConfig{BufferFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	return e, ctx
}

func testFront(t *testing.T, e *storage.Engine, ctx *storage.IOCtx, cfg Config) (*Front, *Session) {
	t.Helper()
	f, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateStore(ctx, "kv"); err != nil {
		t.Fatal(err)
	}
	s, err := f.OpenSession(cfg.Tenants[0].Name, "kv")
	if err != nil {
		t.Fatal(err)
	}
	return f, s
}

func oneTenant() Config {
	return Config{Tenants: []TenantSpec{{
		Name:     "paying",
		Tag:      11,
		Class:    ioreq.ClassRead,
		Deadline: 5 * sim.Millisecond,
	}}}
}

// TestRecordAPI exercises the session KV surface end to end: upsert,
// point read, delete, missing-key errors, scan order and early stop,
// and multi-op transactions with rollback on error.
func TestRecordAPI(t *testing.T) {
	e, ctx := serveTestEngine(t)
	_, s := testFront(t, e, ctx, oneTenant())

	for i := int64(0); i < 20; i++ {
		if err := s.Put(ctx, i, []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	v, err := s.Get(ctx, 7)
	if err != nil || string(v) != "v007" {
		t.Fatalf("get 7 = %q, %v", v, err)
	}
	// Upsert overwrites in place.
	if err := s.Put(ctx, 7, []byte("V007")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(ctx, 7); string(v) != "V007" {
		t.Fatalf("after upsert: %q", v)
	}
	// Upsert to a longer value (update-in-place or relocate, caller
	// cannot tell).
	long := []byte("a much longer value than before, padded out: 0123456789")
	if err := s.Put(ctx, 7, long); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(ctx, 7); string(v) != string(long) {
		t.Fatalf("after growing upsert: %q", v)
	}

	if _, err := s.Get(ctx, 999); !errors.Is(err, storage.ErrNoKey) {
		t.Fatalf("get missing = %v, want ErrNoKey", err)
	}
	if err := s.Delete(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, 3); !errors.Is(err, storage.ErrNoKey) {
		t.Fatalf("get deleted = %v, want ErrNoKey", err)
	}
	if err := s.Delete(ctx, 3); !errors.Is(err, storage.ErrNoKey) {
		t.Fatalf("double delete = %v, want ErrNoKey", err)
	}

	// Scan [5, 10]: key order, key 3 absent anyway, early stop after 3.
	var keys []int64
	err = s.Scan(ctx, 5, 10, func(key int64, val []byte) bool {
		keys = append(keys, key)
		return len(keys) < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != 5 || keys[1] != 6 || keys[2] != 7 {
		t.Fatalf("scan keys = %v, want [5 6 7]", keys)
	}

	// Transaction: read-modify-write two keys atomically.
	err = s.Tx(ctx, func(tx *Txn) error {
		a, err := tx.GetForUpdate(1)
		if err != nil {
			return err
		}
		if err := tx.Put(1, append(a, '!')); err != nil {
			return err
		}
		return tx.Put(100, []byte("new-in-tx"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(ctx, 1); string(v) != "v001!" {
		t.Fatalf("rmw result %q", v)
	}
	if v, _ := s.Get(ctx, 100); string(v) != "new-in-tx" {
		t.Fatalf("tx insert %q", v)
	}

	// Error inside fn aborts: key 200 must not exist afterwards.
	sentinel := errors.New("boom")
	err = s.Tx(ctx, func(tx *Txn) error {
		if err := tx.Put(200, []byte("doomed")); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("tx error = %v", err)
	}
	if _, err := s.Get(ctx, 200); !errors.Is(err, storage.ErrNoKey) {
		t.Fatalf("aborted insert visible: %v", err)
	}
}

// TestPreload bulk-loads and reads back through a session.
func TestPreload(t *testing.T) {
	e, ctx := serveTestEngine(t)
	f, s := testFront(t, e, ctx, oneTenant())
	if err := f.Preload(ctx, "kv", 1200, []byte("seed-row")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get(ctx, 1199); err != nil || string(v) != "seed-row" {
		t.Fatalf("preloaded row: %q, %v", v, err)
	}
	n := 0
	if err := s.Scan(ctx, 0, 1199, func(int64, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1200 {
		t.Fatalf("scan saw %d rows, want 1200", n)
	}
}

// TestFailedPreloadLeavesNoTransaction: a value that cannot fit a page
// fails the preload, and the batch in hand is rolled back rather than
// left open, so a clean Close needs no recovery at the next open.
func TestFailedPreloadLeavesNoTransaction(t *testing.T) {
	ctx := storage.NewIOCtx(&sim.ClockWaiter{})
	data, log := storage.NewMemVolume(4096, 1<<10), storage.NewMemVolume(4096, 1<<10)
	if err := storage.Format(ctx, data, log); err != nil {
		t.Fatal(err)
	}
	e, err := storage.Open(ctx, data, log, storage.EngineConfig{BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := testFront(t, e, ctx, oneTenant())
	if err := f.Preload(ctx, "kv", 10, make([]byte, 8192)); !errors.Is(err, storage.ErrRecordSize) {
		t.Fatalf("preload = %v, want ErrRecordSize", err)
	}
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	e2, err := storage.Open(ctx, data, log, storage.EngineConfig{BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Recovered {
		t.Fatal("reopen after a failed preload and a clean close ran recovery: the preload left its transaction open")
	}
}

// TestSessionStamping: the context a session issues carries the
// tenant's tag, the controller's class and a deadline derived from the
// tenant budget — or the caller's own deadline when already set.
func TestSessionStamping(t *testing.T) {
	e, _ := serveTestEngine(t)
	cfg := oneTenant()
	f, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateStore(storage.NewIOCtx(&sim.ClockWaiter{}), "kv"); err != nil {
		t.Fatal(err)
	}
	s, err := f.OpenSession("paying", "kv")
	if err != nil {
		t.Fatal(err)
	}

	w := &sim.ClockWaiter{}
	w.WaitUntil(3 * sim.Millisecond)
	sctx, err := s.admit(storage.NewIOCtx(w))
	if err != nil {
		t.Fatal(err)
	}
	if sctx.Tag != 11 {
		t.Fatalf("tag %d, want 11", sctx.Tag)
	}
	if sctx.Class != ioreq.ClassRead {
		t.Fatalf("class %v, want ClassRead", sctx.Class)
	}
	if want := 3*sim.Millisecond + 5*sim.Millisecond; sctx.Deadline != want {
		t.Fatalf("deadline %v, want now+budget %v", sctx.Deadline, want)
	}

	// A caller-set deadline (the terminal's per-transaction stamp) wins.
	in := storage.NewIOCtx(w)
	in.Deadline = 4 * sim.Millisecond
	sctx, err = s.admit(in)
	if err != nil {
		t.Fatal(err)
	}
	if sctx.Deadline != 4*sim.Millisecond {
		t.Fatalf("caller deadline overridden: %v", sctx.Deadline)
	}
}

// TestAdmitAllocatesNothing: admit stamps the session's own descriptor
// instead of a fresh one per request.
func TestAdmitAllocatesNothing(t *testing.T) {
	e, _ := serveTestEngine(t)
	f, err := New(e, oneTenant())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateStore(storage.NewIOCtx(&sim.ClockWaiter{}), "kv"); err != nil {
		t.Fatal(err)
	}
	s, err := f.OpenSession("paying", "kv")
	if err != nil {
		t.Fatal(err)
	}
	in := storage.NewIOCtx(&sim.ClockWaiter{})
	var sctx *storage.IOCtx
	if n := testing.AllocsPerRun(100, func() { sctx, err = s.admit(in) }); n != 0 || err != nil {
		t.Errorf("admit: %v allocs per request (err %v), want 0", n, err)
	}
	if sctx != &s.ctx {
		t.Error("admit returned a descriptor other than the session's own")
	}
}

// TestShedPath: a shed tenant with a drained bucket gets ErrShed, and
// only after the client backoff advanced the simulated clock — the
// property that keeps closed retry loops from livelocking the sim.
func TestShedPath(t *testing.T) {
	e, ctx := serveTestEngine(t)
	cfg := oneTenant()
	cfg.Control = ControlFull
	cfg.Tenants[0].Rate = 1000
	cfg.Tenants[0].Burst = 2
	f, s := testFront(t, e, ctx, cfg)
	if err := s.Put(ctx, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.byName["paying"].state = Shed

	w := &sim.ClockWaiter{}
	wctx := storage.NewIOCtx(w)
	// One burst token is left (Put above took one at the mem clock's 0);
	// drain via the session so counters stay honest.
	if _, err := s.Get(wctx, 1); err != nil {
		t.Fatalf("in-budget shed-state request must run degraded, got %v", err)
	}
	before := w.Now()
	_, err := s.Get(wctx, 1)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("drained shed request = %v, want ErrShed", err)
	}
	if w.Now() < before+500*sim.Microsecond {
		t.Fatalf("shed surfaced without backoff: clock moved %v", w.Now()-before)
	}

	st, _ := f.TenantStats("paying")
	if st.Shed == 0 || st.Deprioritized == 0 {
		t.Fatalf("stats %+v: want nonzero shed and deprioritized", st)
	}
	if got := f.Stats(); got.Shed != st.Shed || got.Admitted == 0 {
		t.Fatalf("front stats %+v disagree with tenant %+v", got, st)
	}
}

// stoppedClock is a processless waiter whose time never moves: a
// drained bucket stays drained, so every request it brings is shed.
type stoppedClock struct{}

func (stoppedClock) Now() sim.Time      { return 0 }
func (stoppedClock) WaitUntil(sim.Time) {}
func (stoppedClock) Proc() *sim.Proc    { return nil }

// TestShedErrorBuiltOnce: the error a shed request surfaces is built
// once per tenant with the front — it still wraps ErrShed and names the
// tenant, and the shed path allocates nothing.
func TestShedErrorBuiltOnce(t *testing.T) {
	e, ctx := serveTestEngine(t)
	cfg := oneTenant()
	cfg.Control = ControlFull
	cfg.Tenants[0].Rate = 1000
	cfg.Tenants[0].Burst = 1
	f, s := testFront(t, e, ctx, cfg)
	f.byName["paying"].state = Shed
	sctx := storage.NewIOCtx(stoppedClock{})
	if _, err := s.admit(sctx); err != nil {
		t.Fatalf("the burst token must admit: %v", err)
	}
	var err error
	if n := testing.AllocsPerRun(100, func() { _, err = s.admit(sctx) }); n != 0 {
		t.Fatalf("a shed request allocated %v times, want 0", n)
	}
	if !errors.Is(err, ErrShed) {
		t.Fatalf("shed request = %v, want ErrShed", err)
	}
	if want := "serve: request shed by admission control (tenant paying)"; err.Error() != want {
		t.Fatalf("shed error text = %q, want %q", err, want)
	}
	if st, _ := f.TenantStats("paying"); st.Shed != 101 {
		t.Fatalf("shed count = %d, want 101 (every request after the burst token)", st.Shed)
	}
}

// TestPacing: a rate-limited healthy tenant is slowed to its token
// rate, never erroring — the clock does the limiting.
func TestPacing(t *testing.T) {
	e, ctx := serveTestEngine(t)
	cfg := oneTenant()
	cfg.Control = ControlRateLimit
	cfg.Tenants[0].Rate = 1000 // 1ms per token
	cfg.Tenants[0].Burst = 1
	f, s := testFront(t, e, ctx, cfg)
	if err := f.Preload(ctx, "kv", 10, []byte("r")); err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	wctx := storage.NewIOCtx(w)
	for i := 0; i < 8; i++ {
		if _, err := s.Get(wctx, int64(i)); err != nil {
			t.Fatalf("paced get %d: %v", i, err)
		}
	}
	// 8 requests through a 1-deep bucket at 1ms/token: ≥7ms of pacing.
	if w.Now() < 7*sim.Millisecond {
		t.Fatalf("8 paced requests took only %v of sim time", w.Now())
	}
	st, _ := f.TenantStats("paying")
	if st.Admitted != 8 || st.Shed != 0 || st.Deprioritized != 0 {
		t.Fatalf("pacing stats %+v", st)
	}
}

// TestSessionLifecycle: the active-session gauge tracks open/close, and
// unknown tenants/stores error.
func TestSessionLifecycle(t *testing.T) {
	e, ctx := serveTestEngine(t)
	f, s := testFront(t, e, ctx, oneTenant())
	if f.ActiveSessions() != 1 {
		t.Fatalf("sessions = %d", f.ActiveSessions())
	}
	s2, err := f.OpenSession("paying", "kv")
	if err != nil {
		t.Fatal(err)
	}
	if f.ActiveSessions() != 2 {
		t.Fatalf("sessions = %d", f.ActiveSessions())
	}
	s2.Close()
	s2.Close() // idempotent
	if f.ActiveSessions() != 1 {
		t.Fatalf("after close: %d", f.ActiveSessions())
	}
	if _, err := f.OpenSession("nobody", "kv"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if _, err := f.OpenSession("paying", "nothere"); !errors.Is(err, ErrUnknownStore) {
		t.Fatalf("unknown store: %v", err)
	}
	if _, err := f.CreateStore(ctx, "kv"); err == nil {
		t.Fatal("duplicate store accepted")
	}
	s.Close()
}

// TestManySessionsE2E is the race exercise: thousands of sessions on
// kernel procs hammer one front concurrently (go test -race runs this
// with the detector on). Every committed write must be durable and the
// admission accounting consistent.
func TestManySessionsE2E(t *testing.T) {
	e, ctx := serveTestEngine(t)
	cfg := Config{
		Control: ControlRateLimit,
		Tenants: []TenantSpec{
			{Name: "paying", Tag: 11, Deadline: 5 * sim.Millisecond},
			{Name: "batch", Tag: 12, Class: ioreq.ClassPrefetch, Rate: 50000, Burst: 16},
		},
	}
	f, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateStore(ctx, "kv"); err != nil {
		t.Fatal(err)
	}
	if err := f.Preload(ctx, "kv", 4000, []byte("seed")); err != nil {
		t.Fatal(err)
	}

	const clients = 2000
	k := sim.New()
	var fatal error
	done := make([]int, clients)
	for i := 0; i < clients; i++ {
		i := i
		tenant := "paying"
		if i%2 == 1 {
			tenant = "batch"
		}
		s, err := f.OpenSession(tenant, "kv")
		if err != nil {
			t.Fatal(err)
		}
		k.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			defer s.Close()
			pctx := storage.NewIOCtx(sim.ProcWaiter{P: p})
			key := int64(i % 1000) // two clients per key: lock conflicts happen
			for n := 0; n < 3; n++ {
				err := s.Tx(pctx, func(tx *Txn) error {
					v, err := tx.GetForUpdate(key)
					if err != nil {
						return err
					}
					return tx.Put(key, append(v[:len(v):len(v)], byte('a'+n)))
				})
				if err != nil {
					if errors.Is(err, storage.ErrLockTimeout) {
						n--
						p.Sleep(100 * sim.Microsecond)
						continue
					}
					if fatal == nil {
						fatal = fmt.Errorf("client %d: %w", i, err)
					}
					return
				}
				done[i]++
				p.Sleep(50 * sim.Microsecond)
			}
		})
	}
	if f.ActiveSessions() != clients {
		t.Fatalf("sessions = %d, want %d", f.ActiveSessions(), clients)
	}
	k.RunFor(2 * sim.Second)
	k.Shutdown()
	if fatal != nil {
		t.Fatal(fatal)
	}
	total := 0
	for i, n := range done {
		if n != 3 {
			t.Fatalf("client %d finished %d/3 transactions", i, n)
		}
		total += n
	}
	if f.ActiveSessions() != 0 {
		t.Fatalf("sessions left open: %d", f.ActiveSessions())
	}
	st := f.Stats()
	if st.Admitted < int64(total) {
		t.Fatalf("admitted %d < committed %d", st.Admitted, total)
	}
	// Two clients share each key and each appended 3 bytes to the seed.
	got, err := func() ([]byte, error) {
		s, err := f.OpenSession("paying", "kv")
		if err != nil {
			return nil, err
		}
		defer s.Close()
		return s.Get(ctx, 0)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len("seed")+6 {
		t.Fatalf("key 0 value %q: want seed + 6 appended bytes", got)
	}
}
