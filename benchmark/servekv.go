package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"noftl/internal/ioreq"
	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/telemetry"
	"noftl/internal/workload"
)

// The serving workload's two tenants. Both are compliant: the paying
// tenant has think time and no rate cap; the batch tenant's rate
// contract is above what its sessions offer, so in steady state nothing
// is shed and fail counts stay at zero.
const (
	kvRows     = 4096 // per store: both stores fit the 384-frame pool
	kvValBytes = 96

	payingSessions = 48
	payingThink    = 4 * sim.Millisecond
	payingDeadline = 6 * sim.Millisecond
	batchSessions  = 144
	batchThink     = 8 * sim.Millisecond
	batchDeadline  = 12 * sim.Millisecond
	batchRate      = 60000 // requests per second, shared by its sessions

	tagPaying uint32 = 0x5E0001
	tagBatch  uint32 = 0x5E0002
)

// kvStore is one store's client-side state: the shadow of every value
// the sessions committed, for the read-back check.
type kvStore struct {
	name   string
	shadow map[int64]uint64 // key -> stamp of the last committed write
	stamp  uint64
}

// kvValue builds the record for (key, stamp): both in the header, then
// a filler derived from them, so a lost, torn or misdirected write
// cannot read back as the expected value.
func kvValue(key int64, stamp uint64) []byte {
	v := make([]byte, kvValBytes)
	binary.LittleEndian.PutUint64(v, uint64(key))
	binary.LittleEndian.PutUint64(v[8:], stamp)
	for i := 16; i < len(v); i++ {
		v[i] = byte(uint64(key)*31 + stamp*17 + uint64(i))
	}
	return v
}

// kvSession is one session's request stream, the serving mix: 45%
// read-modify-write transaction, 30% get, 20% put, 5% eight-key scan.
type kvSession struct {
	s  *serve.Session
	st *kvStore
}

func (w *kvSession) Name() string                               { return "kv" }
func (w *kvSession) Load(*storage.IOCtx, *storage.Engine) error { return nil }

func (w *kvSession) RunOne(ctx *storage.IOCtx, _ *storage.Engine, rng *rand.Rand) error {
	key := rng.Int63n(kvRows)
	write := func(put func(val []byte) error) error {
		w.st.stamp++
		stamp := w.st.stamp
		if err := put(kvValue(key, stamp)); err != nil {
			return err
		}
		// Strict two-phase locking orders same-key commits, and this
		// runs before the session yields again: the shadow sees writes
		// in commit order.
		w.st.shadow[key] = stamp
		return nil
	}
	switch p := rng.Intn(100); {
	case p < 45:
		return write(func(val []byte) error {
			return w.s.Tx(ctx, func(tx *serve.Txn) error {
				if _, err := tx.GetForUpdate(key); err != nil {
					return err
				}
				return tx.Put(key, val)
			})
		})
	case p < 75:
		_, err := w.s.Get(ctx, key)
		return err
	case p < 95:
		return write(func(val []byte) error { return w.s.Put(ctx, key, val) })
	default:
		hi := min(key+7, kvRows-1)
		return w.s.Scan(ctx, key, hi, func(int64, []byte) bool { return true })
	}
}

// checkKVReadBack reads every key the sessions wrote and compares it
// with the shadow.
func checkKVReadBack(sys *system.System, front *serve.Front, st *kvStore) error {
	store, ok := front.Store(st.name)
	if !ok {
		return fmt.Errorf("store %s missing", st.name)
	}
	for key := int64(0); key < kvRows; key++ {
		stamp, written := st.shadow[key]
		if !written {
			continue
		}
		rid, found, err := sys.Engine.IdxLookup(sys.Ctx, nil, store.Index, key)
		if err != nil || !found {
			return fmt.Errorf("store %s key %d: lookup found=%v err=%v", st.name, key, found, err)
		}
		got, err := sys.Engine.FetchDirty(sys.Ctx, rid)
		if err != nil {
			return fmt.Errorf("store %s key %d: %w", st.name, key, err)
		}
		if !bytes.Equal(got, kvValue(key, stamp)) {
			return fmt.Errorf("store %s key %d: read back a value other than write %d", st.name, key, stamp)
		}
	}
	return nil
}

// serveKV drives the serving front: 192 sessions parked on think time,
// admission and a request span on every call, data that fits the pool.
// The kernel, serve, telemetry and WAL group commit do most of the work
// and GC does little. The op is one session request.
var serveKV = kernelSpec{
	name:         "serve_kv",
	simPerSecond: 0.9,
	settle:       1 * sim.Second,
	build: func(seed int64, traced bool) (*kernelEnv, error) {
		// The burn guard reads deadline misses from telemetry, so even
		// the untraced run attaches it — without span retention or blame.
		opts := append(nativeOpts(traced), system.WithTelemetry(telemetry.Config{}))
		sys, err := system.New(system.Config{Dies: 8, CapacityMB: 64, Frames: 384}, opts...)
		if err != nil {
			return nil, err
		}
		front, err := sys.StartServe(serve.Config{
			Control: serve.ControlFull,
			Tenants: []serve.TenantSpec{
				{Name: "paying", Tag: tagPaying, Deadline: payingDeadline, MissBudget: 0.25},
				{Name: "batch", Tag: tagBatch, Deadline: batchDeadline, MissBudget: 0.25,
					Rate: batchRate, Burst: 16},
			},
		})
		if err != nil {
			return nil, err
		}
		stores := []*kvStore{
			{name: "paying", shadow: map[int64]uint64{}},
			{name: "batch", shadow: map[int64]uint64{}},
		}
		for _, st := range stores {
			if _, err := front.CreateStore(sys.Ctx, st.name); err != nil {
				return nil, err
			}
			if err := front.Preload(sys.Ctx, st.name, kvRows, kvValue(0, 0)); err != nil {
				return nil, fmt.Errorf("preload %s: %w", st.name, err)
			}
		}
		if err := finishLoad(sys); err != nil {
			return nil, err
		}

		perTenant := []*opRecorder{newOpRecorder(), newOpRecorder()}
		env := &kernelEnv{sys: sys, fatal: &fatals{k: sys.K}, side: perTenant}
		retry := func(err error) bool { return errors.Is(err, serve.ErrShed) }
		var misses func() int64 // deadline misses counted by the sessions so far
		env.start = func(rec *opRecorder, sink func(*ioreq.Span)) func() {
			group := func(i, n, firstID int, think, deadline sim.Time, tag uint32, seed int64) *workload.Terminals {
				wls := make([]workload.Workload, n)
				for j := range wls {
					s, err := front.OpenSession(stores[i].name, stores[i].name)
					if err != nil {
						env.fatal.on("open session")(err)
						continue
					}
					// Recorded twice: in the tenant's own recorder and in
					// the workload's.
					wls[j] = &timed{inner: &timed{inner: &kvSession{s: s, st: stores[i]}, rec: perTenant[i]}, rec: rec}
				}
				return workload.StartTerminals(sys.K, sys.Engine, wls[0], workload.TerminalConfig{
					N: n, FirstID: firstID, Seed: seed, Think: think,
					Counting: &rec.counting, OnFatal: env.fatal.on("session"),
					SpanSink: sink, Retry: retry,
					TagOf:         func(int) uint32 { return tag },
					DeadlineAfter: func(int) sim.Time { return deadline },
					WorkloadOf:    func(id int) workload.Workload { return wls[id-firstID] },
				})
			}
			paying := group(0, payingSessions, 0, payingThink, payingDeadline, tagPaying, seed)
			batch := group(1, batchSessions, payingSessions, batchThink, batchDeadline, tagBatch, seed+1_000_003)
			misses = func() int64 { return paying.DeadlineMisses() + batch.DeadlineMisses() }
			return func() {
				paying.Stop()
				batch.Stop()
			}
		}
		var front0 serve.Stats
		var misses0 int64
		env.begin = func() { front0, misses0 = front.Stats(), misses() }
		env.finish = func(lc *layerCounters, simSeconds float64) {
			f := front.Stats()
			admitted := float64(f.Admitted - front0.Admitted)
			shed := float64(f.Shed - front0.Shed)
			lc.set("serve.admitted_per_s", admitted/simSeconds)
			lc.set("serve.shed_ratio", ratio(shed, admitted+shed))
			lc.set("serve.deprioritized_ratio", ratio(float64(f.Deprioritized-front0.Deprioritized), admitted))
			// A late request still succeeded: it is reported here and in the
			// latency metrics, not as a failed operation.
			lc.set("serve.deadline_miss_ratio", ratio(float64(misses()-misses0), admitted))
			lc.set("serve.paying_p99_us", summarize(perTenant[0].lat).us(99))
			lc.set("serve.batch_p99_us", summarize(perTenant[1].lat).us(99))
		}
		env.check = func() error {
			for _, st := range stores {
				if err := checkKVReadBack(sys, front, st); err != nil {
					return err
				}
			}
			return nil
		}
		return env, nil
	},
}
