package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sched"
	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/workload"
)

// A probe drives one layer alone with a fixed iteration count, so a
// change to that layer shows here before it shows end to end. Each
// batch is prepared untimed, then run timed; a probe reports the median
// of the per-batch mean host nanoseconds per operation and the
// allocations per operation over all batches.
type probe struct {
	name string // layer.operation
	n    int    // operations per batch
	// prepare builds one batch's state and returns the timed body, which
	// performs n operations.
	prepare func(n int) (run func())
}

const probeBatches = 7

// probeSeed fixes the probes' random streams: they measure layers, not
// workloads, so they do not follow --seed.
const probeSeed = 1

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("probe set-up: %v", err)) // fixed inputs: only a bug fails here
	}
}

// programmed returns a device (dev_pattern's shape: 4 dies, 64 MB, data
// stored) whose first n pages hold data.
func programmed(n int) (*flash.Device, []byte) {
	dev := devDevice()
	page := make([]byte, dev.Geometry().PageSize)
	w := &sim.ClockWaiter{}
	for p := 0; p < n; p++ {
		must(dev.ProgramPage(w, nand.PPN(p), page, nand.OOB{}))
	}
	dev.ResetTime()
	return dev, page
}

// memEngine opens an engine on zero-latency memory volumes: engine-side
// probes measure code, not simulated devices.
func memEngine(frames int) (*storage.Engine, *storage.IOCtx) {
	data := storage.NewMemVolume(4096, 1<<16)
	logv := storage.NewMemVolume(4096, 1<<14)
	ctx := storage.NewIOCtx(&sim.ClockWaiter{})
	must(storage.Format(ctx, data, logv))
	e, err := storage.Open(ctx, data, logv, storage.EngineConfig{BufferFrames: frames})
	must(err)
	return e, ctx
}

// halfFull returns a page store filled to half, for overwrite probes.
func halfFull(store pageStore) *devRun {
	d := newDevRun(4096, store, &sim.ClockWaiter{}, probeSeed, 0, nil)
	for lpn := int64(0); lpn < store.pages/2; lpn++ {
		must(d.writePage(lpn))
	}
	return d
}

func noftlStore() pageStore {
	vol, err := noftl.New(devDevice(), noftl.Config{})
	must(err)
	return noftlPages(vol, &sim.ClockWaiter{})
}

func kvFront() (*serve.Session, *storage.IOCtx, []byte) {
	e, ctx := memEngine(1024)
	front, err := serve.New(e, serve.Config{Tenants: []serve.TenantSpec{{Name: "t", Tag: 1}}})
	must(err)
	_, err = front.CreateStore(ctx, "s")
	must(err)
	val := kvValue(0, 0)
	must(front.Preload(ctx, "s", kvRows, val))
	s, err := front.OpenSession("t", "s")
	must(err)
	return s, ctx, val
}

var probes = []probe{
	{"sim.sleep_wake", 20000, func(n int) func() {
		k := sim.New()
		return func() {
			k.Go("sleeper", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(sim.Microsecond)
				}
			})
			k.Run()
		}
	}},
	{"sim.queue_pingpong", 10000, func(n int) func() {
		k := sim.New()
		ping, pong := sim.NewQueue[int](k), sim.NewQueue[int](k)
		return func() {
			k.Go("ping", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					ping.Put(i)
					pong.Get(p)
				}
			})
			k.Go("pong", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					v, _ := ping.Get(p)
					pong.Put(v)
				}
			})
			k.Run()
		}
	}},
	{"sim.after_event", 50000, func(n int) func() {
		k := sim.New()
		fired := 0
		return func() {
			for i := 0; i < n; i++ {
				k.After(sim.Time(i), func() { fired++ })
			}
			k.Run()
		}
	}},
	{"nand.program", 8192, func(n int) func() {
		geo := devDevice().Geometry()
		arr := nand.NewArray(geo, nand.SLC, nand.Options{StoreData: true})
		page := make([]byte, geo.PageSize)
		return func() {
			for p := 0; p < n; p++ {
				must(arr.ProgramPage(nand.PPN(p), page, nand.OOB{}))
			}
		}
	}},
	{"nand.read", 8192, func(n int) func() {
		dev, page := programmed(n)
		arr := dev.Array()
		return func() {
			for p := 0; p < n; p++ {
				_, err := arr.ReadPage(nand.PPN(p), page)
				must(err)
			}
		}
	}},
	{"flash.program", 8192, func(n int) func() {
		dev := devDevice()
		page := make([]byte, dev.Geometry().PageSize)
		w := &sim.ClockWaiter{}
		return func() {
			for p := 0; p < n; p++ {
				must(dev.ProgramPage(w, nand.PPN(p), page, nand.OOB{}))
			}
		}
	}},
	{"flash.read", 8192, func(n int) func() {
		dev, page := programmed(n)
		w := &sim.ClockWaiter{}
		return func() {
			for p := 0; p < n; p++ {
				_, err := dev.ReadPage(w, nand.PPN(p), page)
				must(err)
			}
		}
	}},
	{"sched.dispatch", 8192, func(n int) func() {
		// Four processes submit reads through one class view of a
		// priority scheduler: enqueue, die-process dispatch, completion.
		dev, _ := programmed(n)
		k := sim.New()
		view := sched.New(k, dev, sched.Config{Policy: sched.Priority}).Bind(sched.ClassRead)
		const procs = 4
		return func() {
			for i := 0; i < procs; i++ {
				k.Go("reader", func(p *sim.Proc) {
					w := sim.ProcWaiter{P: p}
					buf := make([]byte, dev.Geometry().PageSize)
					for j := i; j < n; j += procs {
						_, err := view.ReadPage(w, nand.PPN(j), buf)
						must(err)
					}
				})
			}
			k.Run()
			k.Shutdown()
		}
	}},
	{"noftl.write", 20000, func(n int) func() {
		d := halfFull(noftlStore())
		return func() {
			for i := 0; i < n; i++ {
				must(d.writePage(d.rng.Int63n(d.store.pages / 2)))
			}
		}
	}},
	{"noftl.read", 20000, func(n int) func() {
		d := halfFull(noftlStore())
		return func() {
			for i := 0; i < n; i++ {
				must(d.readPage(d.rng.Int63n(d.store.pages/2), false))
			}
		}
	}},
	{"ftl.seqlog_append", 2048, func(n int) func() {
		dev := devDevice()
		log, err := ftl.NewSeqLog(dev, ftl.SeqLogConfig{Dies: []int{0}})
		must(err)
		rq := ioreq.Plain(&sim.ClockWaiter{}).WithClass(ioreq.ClassWAL)
		page := make([]byte, dev.Geometry().PageSize)
		return func() {
			for i := 0; i < n; i++ {
				_, err := log.Append(rq, page)
				must(err)
			}
		}
	}},
	{"ftl.faster_write", 5000, func(n int) func() {
		store, _, err := fasterPages(devDevice(), &sim.ClockWaiter{})
		must(err)
		d := halfFull(store)
		return func() {
			for i := 0; i < n; i++ {
				must(d.writePage(d.rng.Int63n(d.store.pages / 2)))
			}
		}
	}},
	{"storage.buffer_pin_hit", 100000, func(n int) func() {
		e, ctx := memEngine(64)
		tbl, err := e.CreateTable(ctx, "t")
		must(err)
		tx := e.Begin()
		rid, err := e.Insert(ctx, tx, tbl, make([]byte, 64))
		must(err)
		must(e.Commit(ctx, tx))
		bp := e.Buffer()
		return func() {
			for i := 0; i < n; i++ {
				f, err := bp.Pin(ctx, rid.Page, false)
				must(err)
				bp.Unpin(f, false, 0)
			}
		}
	}},
	{"storage.wal_append_flush", 4096, func(n int) func() {
		e, ctx := memEngine(64)
		wal := e.Log()
		return func() {
			for i := 0; i < n; i++ {
				lsn := wal.Append(&storage.LogRecord{Type: storage.RecCommit, Tx: uint64(i)})
				must(wal.Flush(ctx, lsn+1))
			}
		}
	}},
	{"storage.btree_lookup", 50000, func(n int) func() {
		e, ctx := memEngine(1024)
		idx, err := e.CreateIndex(ctx, "i")
		must(err)
		const keys = 20000
		tx := e.Begin()
		for k := int64(0); k < keys; k++ {
			must(e.IdxInsert(ctx, tx, idx, k, storage.RID{Page: storage.PageID(k)}))
		}
		must(e.Commit(ctx, tx))
		rng := rand.New(rand.NewSource(probeSeed))
		return func() {
			for i := 0; i < n; i++ {
				_, found, err := e.IdxLookup(ctx, nil, idx, rng.Int63n(keys))
				if err != nil || !found {
					panic(fmt.Sprintf("probe btree lookup: found=%v err=%v", found, err))
				}
			}
		}
	}},
	{"storage.tpcb_tx", 4000, func(n int) func() {
		e, ctx := memEngine(2048)
		wl := workload.NewTPCB(workload.TPCBConfig{Branches: 4, AccountsPerBranch: 2000})
		must(wl.Load(ctx, e))
		rng := rand.New(rand.NewSource(probeSeed))
		return func() {
			for i := 0; i < n; i++ {
				must(wl.RunOne(ctx, e, rng))
			}
		}
	}},
	{"serve.get", 20000, func(n int) func() {
		s, ctx, _ := kvFront()
		rng := rand.New(rand.NewSource(probeSeed))
		return func() {
			for i := 0; i < n; i++ {
				_, err := s.Get(ctx, rng.Int63n(kvRows))
				must(err)
			}
		}
	}},
	{"serve.put", 10000, func(n int) func() {
		s, ctx, val := kvFront()
		rng := rand.New(rand.NewSource(probeSeed))
		return func() {
			for i := 0; i < n; i++ {
				must(s.Put(ctx, rng.Int63n(kvRows), val))
			}
		}
	}},
	{"ioreq.span_lifecycle", 50000, func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				// One request's worth of span work: a buffer miss that
				// went to the volume, queued and was served, then a WAL
				// flush.
				now := sim.Time(i) * sim.Millisecond
				sp := ioreq.NewSpan(uint64(i), 0, 0)
				sp.Begin(now)
				sp.Enter(ioreq.StageBuffer, now+1)
				sp.Enter(ioreq.StageVolume, now+2)
				sp.Enter(ioreq.StageSchedQ, now+3)
				sp.Exit(now + 50)
				sp.Transfer(ioreq.StageSchedQ, ioreq.StageDie, 20)
				sp.Exit(now + 51)
				sp.Exit(now + 52)
				sp.Enter(ioreq.StageWAL, now+60)
				sp.Exit(now + 300)
				sp.Finish(now + 301)
			}
		}
	}},
}

// runProbes measures every probe into c.
func runProbes(c map[string]float64) {
	for _, p := range probes {
		nsPerOp := make([]float64, probeBatches)
		var mallocs uint64
		for b := range nsPerOp {
			run := p.prepare(p.n)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := wallNs()
			run()
			nsPerOp[b] = float64(wallNs()-t0) / float64(p.n)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
		}
		c[p.name+".ns_per_op"] = median(nsPerOp)
		c[p.name+".allocs_per_op"] = float64(mallocs) / float64(probeBatches*p.n)
	}
}
