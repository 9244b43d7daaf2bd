// Package workload implements the benchmarks the paper evaluates with:
// TPC-B, TPC-C, TPC-E and TPC-H style workloads against the storage
// engine, plus FIO-style synthetic page workloads for emulator
// validation. Schemas and transaction mixes follow the specs
// structurally; scale factors are configurable so experiments fit in
// simulation (the paper's absolute sizes remain reachable via flags).
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"noftl/internal/storage"
)

// Workload is a transactional benchmark against the storage engine.
type Workload interface {
	// Name identifies the benchmark ("tpcb", "tpcc", ...).
	Name() string
	// Load creates the schema and initial population.
	Load(ctx *storage.IOCtx, e *storage.Engine) error
	// RunOne executes a single transaction (begin..commit/abort). Lock
	// timeouts are returned (already aborted) so drivers can retry.
	RunOne(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error
}

// rec builds fixed-layout records: int64 fields followed by filler.
func rec(filler int, fields ...int64) []byte {
	b := make([]byte, len(fields)*8+filler)
	for i, f := range fields {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(f))
	}
	return b
}

// field reads the i-th int64 of a record built by rec.
func field(b []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(b[i*8:]))
}

// setField updates the i-th int64 in place.
func setField(b []byte, i int, v int64) {
	binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
}

// withTx wraps body in a transaction: commit on success, abort on error
// (the error is returned so drivers can classify retries). A failing
// abort is fatal — a transaction that cannot roll back would leave
// partial state behind.
func withTx(ctx *storage.IOCtx, e *storage.Engine, body func(tx *storage.Tx) error) error {
	tx := e.Begin()
	if err := body(tx); err != nil {
		if aerr := e.Abort(ctx, tx); aerr != nil {
			return fmt.Errorf("abort failed (%v) after: %w", aerr, err)
		}
		return err
	}
	return e.Commit(ctx, tx)
}

// fetchByKey looks a row up through an index and returns (rid, row)
// at read-committed (the lock is not retained).
func fetchByKey(ctx *storage.IOCtx, e *storage.Engine, tx *storage.Tx, idx uint32, key int64) (storage.RID, []byte, error) {
	rid, found, err := e.IdxLookup(ctx, tx, idx, key)
	if err != nil {
		return storage.RID{}, nil, err
	}
	if !found {
		return storage.RID{}, nil, fmt.Errorf("%w: idx %d key %d", storage.ErrNoKey, idx, key)
	}
	row, err := e.Fetch(ctx, tx, rid)
	return rid, row, err
}

// fetchByKeyU is fetchByKey with FOR UPDATE semantics: the row lock is
// held until commit, so read-modify-write cycles cannot lose updates.
func fetchByKeyU(ctx *storage.IOCtx, e *storage.Engine, tx *storage.Tx, idx uint32, key int64) (storage.RID, []byte, error) {
	rid, found, err := e.IdxLookup(ctx, tx, idx, key)
	if err != nil {
		return storage.RID{}, nil, err
	}
	if !found {
		return storage.RID{}, nil, fmt.Errorf("%w: idx %d key %d (for update)", storage.ErrNoKey, idx, key)
	}
	row, err := e.FetchForUpdate(ctx, tx, rid)
	return rid, row, err
}
