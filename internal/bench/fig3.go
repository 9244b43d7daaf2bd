package bench

import (
	"fmt"
	"math"
	"math/rand"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/trace"
	"noftl/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Fig3Config parameterizes the Figure-3 experiment: off-line
// trace-driven GC overhead of FASTer versus NoFTL under TPC-C, TPC-B and
// TPC-E. The paper records 60-minute traces on an in-memory database at
// SF 30 (TPC-C), 350 (TPC-B) and 1000 customers (TPC-E); the defaults
// shrink populations and transaction counts proportionally.
type Fig3Config struct {
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	TPCC workload.TPCCConfig
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	TPCB workload.TPCBConfig
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	TPCE workload.TPCEConfig
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	Transactions int // per workload. Default 4000.
	Seed         int64
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.TPCC.Warehouses == 0 {
		c.TPCC = workload.TPCCConfig{Warehouses: 2}
	}
	if c.TPCB.Branches == 0 {
		c.TPCB = workload.TPCBConfig{Branches: 24}
	}
	if c.TPCE.Customers == 0 {
		c.TPCE = workload.TPCEConfig{Customers: 100}
	}
	if c.Transactions <= 0 {
		c.Transactions = 4000
	}
	return c
}

// Fig3Row is one workload column of the paper's Figure-3 table.
type Fig3Row struct {
	Workload         string
	FasterCopybacks  int64
	NoFTLCopybacks   int64
	RelativeCopyback float64
	FasterErases     int64
	NoFTLErases      int64
	RelativeErase    float64
	TraceWrites      int64
	TraceReads       int64
}

// Fig3Result holds all three workload columns.
type Fig3Result struct {
	Rows []Fig3Row
}

// Figure3 reproduces the paper's Figure 3 (and the §5 longevity claim):
// record each workload's page trace on an in-memory engine, then replay
// it against (a) the FASTer FTL behind a block interface — which never
// hears about dead pages — and (b) the NoFTL volume with free-space
// integration, counting device COPYBACK and ERASE operations.
func Figure3(cfg Fig3Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig3Result{}
	wls := []workload.Workload{
		workload.NewTPCC(cfg.TPCC),
		workload.NewTPCB(cfg.TPCB),
		workload.NewTPCE(cfg.TPCE),
	}
	for _, wl := range wls {
		row, err := figure3One(wl, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure3 %s: %w", wl.Name(), err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// recordTrace runs the workload on an in-memory engine behind a
// recorder, returning the trace and the index separating load from
// transaction phase. The load runs with a large buffer pool; the
// transaction phase reopens the engine with a buffer sized to a fraction
// of the database, so the trace contains the eviction/write-back traffic
// a real buffer-constrained engine produces (the paper's engines are
// I/O bound, not buffer-resident).
func recordTrace(wl workload.Workload, txs int, seed int64) (*trace.Trace, int, error) {
	const pageSize = 4096
	inner := storage.NewMemVolume(pageSize, 1<<20)
	rec := trace.NewRecorder(inner)
	logv := storage.NewMemVolume(pageSize, 1<<16)
	ctx := storage.NewIOCtx(nil)
	if err := storage.Format(ctx, rec, logv); err != nil {
		return nil, 0, err
	}
	e, err := storage.Open(ctx, rec, logv, storage.EngineConfig{BufferFrames: 4096})
	if err != nil {
		return nil, 0, err
	}
	if err := wl.Load(ctx, e); err != nil {
		return nil, 0, err
	}
	if err := e.Close(ctx); err != nil {
		return nil, 0, err
	}
	loadEnd := len(rec.T.Ops)

	// Database footprint: distinct pages written during load.
	seen := map[int64]struct{}{}
	for _, op := range rec.T.Ops[:loadEnd] {
		if op.Kind == trace.OpWrite {
			seen[op.LPN] = struct{}{}
		}
	}
	frames := len(seen) / 8
	if frames < 64 {
		frames = 64
	}
	e, err = storage.Open(ctx, rec, logv, storage.EngineConfig{BufferFrames: frames})
	if err != nil {
		return nil, 0, err
	}
	rng := newRand(seed)
	for i := 0; i < txs; i++ {
		if err := wl.RunOne(ctx, e, rng); err != nil {
			return nil, 0, fmt.Errorf("tx %d: %w", i, err)
		}
		// Periodic checkpoints stand in for Shore-MT's continuous
		// db-writer flushing: dirty pages reach storage repeatedly, which
		// is what generates update/invalidate pressure on the FTL.
		if (i+1)%200 == 0 {
			if err := e.Checkpoint(ctx); err != nil {
				return nil, 0, err
			}
		}
	}
	if err := e.Close(ctx); err != nil {
		return nil, 0, err
	}
	return &rec.T, loadEnd, nil
}

// fig3Device builds the replay device Figure 3 and the A1–A4 sweeps run
// on: single-plane dies so every relocation is copyback-eligible,
// matching firmware-managed banks.
func fig3Device(pages int64, pageSize int) flash.Config {
	const pagesPerBlock = 64
	// Two blocks of slack: the NoFTL volume reserves one block per plane
	// per frontier (hot/cold/GC/delta/log) plus the low-water pool, and
	// the exported capacity must still clear the trace's page span.
	blocks := int(pages/pagesPerBlock) + 2
	if blocks < 13 {
		blocks = 13 // floor: log area + frontiers + GC reserve must fit
	}
	dies := blocks / 16
	if dies > 8 {
		dies = 8
	}
	if dies < 1 {
		dies = 1
	}
	channels := dies
	if channels > 4 {
		channels = 4
	}
	for dies%channels != 0 {
		channels--
	}
	return flash.Config{
		Geometry: nand.Geometry{
			Channels:        channels,
			ChipsPerChannel: dies / channels,
			DiesPerChip:     1,
			PlanesPerDie:    1,
			BlocksPerPlane:  blocks/dies + 2,
			PagesPerBlock:   pagesPerBlock,
			PageSize:        pageSize,
			OOBSize:         128,
		},
		Cell: nand.SLC,
		Nand: nand.Options{StoreData: false}, // counting replay
	}
}

func figure3One(wl workload.Workload, cfg Fig3Config) (*Fig3Row, error) {
	tr, loadEnd, err := recordTrace(wl, cfg.Transactions, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	load := &trace.Trace{PageSize: tr.PageSize, Ops: tr.Ops[:loadEnd]}
	txs := &trace.Trace{PageSize: tr.PageSize, Ops: tr.Ops[loadEnd:]}
	span := tr.Span()
	row := &Fig3Row{Workload: wl.Name()}
	row.TraceReads, row.TraceWrites, _ = txs.Counts()

	// FASTer behind the block interface: trims would never arrive. No
	// recorded workload frees a page, so the trace holds none anyway.
	var ff *ftl.FasterFTL
	row.FasterCopybacks, row.FasterErases, err = figure3Replay(load, txs, span, true,
		func(dev *flash.Device) (trace.Target, int64, error) {
			var err error
			if ff, err = ftl.NewFasterFTL(dev, ftl.FasterConfig{SecondChance: true}); err != nil {
				return nil, 0, err
			}
			return ff, ff.LogicalPages(), nil
		})
	if err != nil {
		return nil, fmt.Errorf("faster: %w", err)
	}
	row.FasterCopybacks += fasterBusCopies(ff.Stats())

	// NoFTL: same trace. The DBMS's dead-page knowledge would reach GC
	// here, but no recorded workload frees a page, so this row measures
	// the die manager against FASTer's merges and nothing else.
	row.NoFTLCopybacks, row.NoFTLErases, err = figure3Replay(load, txs, span, false,
		func(dev *flash.Device) (trace.Target, int64, error) {
			nv, err := noftl.New(dev, noftl.Config{})
			if err != nil {
				return nil, 0, err
			}
			return trace.NoFTLTarget{V: nv}, nv.LogicalPages(), nil
		})
	if err != nil {
		return nil, fmt.Errorf("noftl: %w", err)
	}

	row.RelativeCopyback = ratioOrInf(row.FasterCopybacks, row.NoFTLCopybacks)
	row.RelativeErase = ratioOrInf(row.FasterErases, row.NoFTLErases)
	return row, nil
}

// figure3Replay builds one side of Figure 3 with open on a drive sized
// from the trace's page span (~72% utilisation, a loaded OLTP drive),
// replays load and then txs on it, and returns the device's COPYBACK and
// ERASE commands during txs. open returns the target and the pages it
// exports.
func figure3Replay(load, txs *trace.Trace, span int64, dropTrims bool,
	open func(*flash.Device) (trace.Target, int64, error)) (copybacks, erases int64, err error) {
	dev := flash.New(fig3Device(span*10/7, load.PageSize))
	t, pages, err := open(dev)
	if err != nil {
		return 0, 0, err
	}
	if pages < span {
		return 0, 0, fmt.Errorf("drive too small: %d < %d pages", pages, span)
	}
	w, opts := &sim.ClockWaiter{}, trace.ReplayOptions{DropTrims: dropTrims}
	if _, err := trace.Replay(load, t, w, opts); err != nil {
		return 0, 0, err
	}
	base := dev.Stats()
	if _, err := trace.Replay(txs, t, w, opts); err != nil {
		return 0, 0, err
	}
	after := dev.Stats()
	return after.Copybacks - base.Copybacks, after.Erases - base.Erases, nil
}

// fasterBusCopies counts relocations FASTer had to do over the bus
// (cross-plane read+program pairs count as copy work in the paper's
// accounting).
func fasterBusCopies(s ftl.Stats) int64 { return s.GCWrites }

// ratioOrInf divides, mapping x/0 to +Inf for x > 0 (NoFTL sometimes
// needs literally zero copybacks: its victims are fully dead).
func ratioOrInf(num, den int64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(num) / float64(den)
}

// Table renders the Figure-3 table in the paper's layout.
func (r *Fig3Result) Table() string {
	t := stats.NewTable("IO type", "Workload", "FASTer", "NoFTL", "Relative")
	for _, row := range r.Rows {
		t.Row("COPYBACK", row.Workload, row.FasterCopybacks, row.NoFTLCopybacks,
			row.RelativeCopyback)
	}
	for _, row := range r.Rows {
		t.Row("ERASE", row.Workload, row.FasterErases, row.NoFTLErases, row.RelativeErase)
	}
	return t.String()
}
