package serve

import (
	"errors"
	"fmt"

	"noftl/internal/sim"
	"noftl/internal/storage"
)

// Session is one tenant's handle on one store. Every operation takes
// the caller's request context (waiter + optional span), runs it
// through the admission controller, and re-issues it with the tenant's
// full descriptor stamped on: scheduler class (possibly degraded by the
// controller), stream tag, and completion deadline. The layers below —
// buffer pool, WAL, volume, command scheduler, flight recorder, blame —
// therefore see exactly which tenant caused which I/O.
//
// Sessions are not goroutine-safe; open one per client process (the
// closed-loop drivers open one per terminal). It owns the descriptor and
// Txn of the one request it runs at a time.
type Session struct {
	f      *Front
	t      *tenant
	st     *Store
	closed bool
	ctx    storage.IOCtx
	txn    Txn
}

// Close releases the session (the active-session gauge drops).
func (s *Session) Close() {
	if !s.closed {
		s.closed = true
		s.f.sessions--
	}
}

// admit runs one request through the admission controller and returns
// the stamped context it should execute under: the session's own
// descriptor, valid until the next request. Paced requests sleep on
// the caller's waiter until their token exists; shed requests sleep the
// client backoff and then surface ErrShed — either way the simulated
// clock advances, so admission can never livelock the kernel.
func (s *Session) admit(ctx *storage.IOCtx) (*storage.IOCtx, error) {
	w := ctx.W
	for {
		d := s.f.admit(s.t, w.Now())
		if d.shed {
			w.WaitUntil(d.retry)
			return nil, s.t.shedErr
		}
		if d.wait > 0 {
			w.WaitUntil(d.wait)
			continue
		}
		now := w.Now()
		deadline := sim.Time(0)
		if ctx.Deadline > 0 {
			// The caller (a terminal stamping per-transaction deadlines)
			// already set the SLO point; keep it.
			deadline = ctx.Deadline
		} else if s.t.spec.Deadline > 0 {
			deadline = now + s.t.spec.Deadline
		}
		s.ctx = storage.IOCtx{
			W:        w,
			Class:    d.class,
			Tag:      s.t.spec.Tag,
			Deadline: deadline,
			Span:     ctx.Span,
		}
		return &s.ctx, nil
	}
}

// Get returns a copy of the value stored under key (storage.ErrNoKey
// when absent). One admission-controlled read transaction.
func (s *Session) Get(ctx *storage.IOCtx, key int64) ([]byte, error) {
	var val []byte
	err := s.Tx(ctx, func(t *Txn) error {
		v, err := t.Get(key)
		val = append([]byte(nil), v...) // the row belongs to the transaction
		return err
	})
	if err != nil {
		return nil, err
	}
	return val, nil
}

// Put upserts the value under key. One admission-controlled write
// transaction.
func (s *Session) Put(ctx *storage.IOCtx, key int64, val []byte) error {
	return s.Tx(ctx, func(t *Txn) error { return t.Put(key, val) })
}

// Delete removes key (storage.ErrNoKey when absent). One
// admission-controlled write transaction.
func (s *Session) Delete(ctx *storage.IOCtx, key int64) error {
	return s.Tx(ctx, func(t *Txn) error { return t.Delete(key) })
}

// Scan streams key-ordered records of [lo, hi] to fn until fn returns
// false. It is one admission decision; the reads run at read-committed
// outside a transaction (the analytical path). As with Engine.Scan, val
// is the page-resident record: valid only during fn.
func (s *Session) Scan(ctx *storage.IOCtx, lo, hi int64, fn func(key int64, val []byte) bool) error {
	sctx, err := s.admit(ctx)
	if err != nil {
		return err
	}
	e := s.f.e
	var ferr error
	err = e.IdxRange(sctx, s.st.Index, lo, hi, func(key int64, rid storage.RID) bool {
		more := false
		if ferr = e.ViewDirty(sctx, rid, func(val []byte) { more = fn(key, val) }); ferr != nil {
			return false
		}
		return more
	})
	if err != nil {
		return err
	}
	return ferr
}

// Tx runs fn as one transaction under one admission decision: commit on
// success, abort on error (lock timeouts are returned aborted so
// drivers can retry, the engine convention).
func (s *Session) Tx(ctx *storage.IOCtx, fn func(*Txn) error) error {
	sctx, err := s.admit(ctx)
	if err != nil {
		return err
	}
	e := s.f.e
	tx := e.Begin()
	s.txn = Txn{s: s, ctx: sctx, tx: tx}
	if err := fn(&s.txn); err != nil {
		if aerr := e.Abort(sctx, tx); aerr != nil {
			return fmt.Errorf("serve: abort failed (%v) after: %w", aerr, err)
		}
		return err
	}
	return e.Commit(sctx, tx)
}

// Txn is the record API inside one session transaction. All operations
// run under the transaction's stamped context. It belongs to the session
// and is valid only during the Tx callback; so are the rows it returns.
type Txn struct {
	s   *Session
	ctx *storage.IOCtx
	tx  *storage.Tx
}

// Get returns the value under key at read-committed (the row lock is
// not retained past the read).
func (t *Txn) Get(key int64) ([]byte, error) {
	e := t.s.f.e
	rid, found, err := e.IdxLookup(t.ctx, t.tx, t.s.st.Index, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %s key %d", storage.ErrNoKey, t.s.st.Name, key)
	}
	return e.Fetch(t.ctx, t.tx, rid)
}

// GetForUpdate returns the value under key holding its row lock until
// commit (read-modify-write cycles cannot lose updates).
func (t *Txn) GetForUpdate(key int64) ([]byte, error) {
	e := t.s.f.e
	rid, found, err := e.IdxLookup(t.ctx, t.tx, t.s.st.Index, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %s key %d (for update)", storage.ErrNoKey, t.s.st.Name, key)
	}
	return e.FetchForUpdate(t.ctx, t.tx, rid)
}

// Put upserts val under key: update in place when the key exists (and
// still fits its page), insert otherwise, falling back to
// delete+reinsert when an update outgrows the page.
func (t *Txn) Put(key int64, val []byte) error {
	e, st := t.s.f.e, t.s.st
	rid, found, err := e.IdxLookup(t.ctx, t.tx, st.Index, key)
	if err != nil {
		return err
	}
	if found {
		err = e.Update(t.ctx, t.tx, rid, val)
		if err == nil {
			return nil
		}
		if !errors.Is(err, storage.ErrUpdateGrow) {
			return err
		}
		if err := e.Delete(t.ctx, t.tx, st.Table, rid); err != nil {
			return err
		}
		if err := e.IdxDelete(t.ctx, t.tx, st.Index, key); err != nil {
			return err
		}
	}
	nrid, err := e.Insert(t.ctx, t.tx, st.Table, val)
	if err != nil {
		return err
	}
	return e.IdxInsert(t.ctx, t.tx, st.Index, key, nrid)
}

// Delete removes key (storage.ErrNoKey when absent).
func (t *Txn) Delete(key int64) error {
	e, st := t.s.f.e, t.s.st
	rid, found, err := e.IdxLookup(t.ctx, t.tx, st.Index, key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %s key %d (delete)", storage.ErrNoKey, st.Name, key)
	}
	if err := e.Delete(t.ctx, t.tx, st.Table, rid); err != nil {
		return err
	}
	return e.IdxDelete(t.ctx, t.tx, st.Index, key)
}
