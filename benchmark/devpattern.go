package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"noftl/internal/blockdev"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
	"noftl/internal/system"
)

// dev_pattern issues uFLIP-style page patterns serially through a
// private clock straight at the flash-management layer. No kernel, no
// scheduler, no engine: nand, flash and noftl do all the work, so a
// kernel change must not move it and a NAND page-buffer or mapping
// change moves it most. The op is one 4 KiB page read or write.
const (
	devDies       = 4
	devCapacityMB = 64
	devFill       = 0.90 // share of the logical space written before the run
	// devOpsPerSecond sizes the run: page operations per requested second
	// of run time, calibrated on the reference sandbox. The count, not
	// host time, bounds the run, so sim_* metrics repeat exactly.
	devOpsPerSecond = 300_000
	// fasterShare is the FASTer comparison's size relative to NoFTL's:
	// the legacy stack is about four times as expensive per op.
	fasterShare = 8
	devBatch    = 1000 // page ops per benchmark span in a traced run
)

// devPatterns are the phases of one round, uFLIP's one pattern varied
// at a time: each slice of the measure window runs all four in turn
// with equal op counts, so every slice holds the same work.
var devPatterns = []string{"seq_write", "rand_write", "rand_read", "mix_70r_30w"}

// pageStore is what a pattern runs against: the NoFTL volume, or FASTer
// behind the legacy block interface.
type pageStore struct {
	pages int64
	read  func(lpn int64, buf []byte) error
	write func(lpn int64, data []byte) error
}

// noftlPages addresses a NoFTL volume; the caller's clock is the waiter.
func noftlPages(vol *noftl.Volume, clock *sim.ClockWaiter) pageStore {
	rq := ioreq.Plain(clock)
	return pageStore{
		pages: vol.LogicalPages(),
		read:  func(lpn int64, buf []byte) error { return vol.Read(rq, lpn, buf) },
		write: func(lpn int64, data []byte) error { return vol.Write(rq, lpn, data) },
	}
}

// fasterPages builds FASTer behind the legacy block interface on dev.
func fasterPages(dev *flash.Device, clock *sim.ClockWaiter) (pageStore, *ftl.FasterFTL, error) {
	f, err := ftl.NewFasterFTL(dev, ftl.FasterConfig{SecondChance: true})
	if err != nil {
		return pageStore{}, nil, err
	}
	bd := blockdev.New(f, blockdev.Config{})
	return pageStore{
		pages: bd.Pages(),
		read:  func(lpn int64, buf []byte) error { return bd.Read(clock, lpn, buf) },
		write: func(lpn int64, data []byte) error { return bd.Write(clock, lpn, data) },
	}, f, nil
}

// devRun is one pattern run's state: the target, its clock, and the
// shadow of every page's last written stamp.
type devRun struct {
	store  pageStore
	clock  *sim.ClockWaiter
	rng    *rand.Rand
	shadow []uint32 // per lpn: stamp of the last write, 0 = never written
	stamp  uint32
	seq    int64 // next lpn of the sequential pattern
	buf    []byte
	rec    *opRecorder
	failed error // the first failed operation
	tr     *tracer
}

// stampPage writes the page header the read-back check compares.
func (d *devRun) stampPage(lpn int64) {
	d.stamp++
	binary.LittleEndian.PutUint64(d.buf, uint64(lpn))
	binary.LittleEndian.PutUint32(d.buf[8:], d.stamp)
}

func (d *devRun) writePage(lpn int64) error {
	d.stampPage(lpn)
	if err := d.store.write(lpn, d.buf); err != nil {
		return err
	}
	d.shadow[lpn] = d.stamp
	return nil
}

// readPage reads one page; verify compares it with the shadow.
func (d *devRun) readPage(lpn int64, verify bool) error {
	if err := d.store.read(lpn, d.buf); err != nil {
		return err
	}
	if !verify {
		return nil
	}
	gotLPN := int64(binary.LittleEndian.Uint64(d.buf))
	gotStamp := binary.LittleEndian.Uint32(d.buf[8:])
	if gotLPN != lpn || gotStamp != d.shadow[lpn] {
		return fmt.Errorf("page %d read back (lpn %d, stamp %d), shadow has stamp %d",
			lpn, gotLPN, gotStamp, d.shadow[lpn])
	}
	return nil
}

// filled is the number of logical pages the patterns touch.
func (d *devRun) filled() int64 { return int64(float64(d.store.pages) * devFill) }

// fill writes the touched range once, sequentially (set-up).
func (d *devRun) fill() error {
	for lpn := int64(0); lpn < d.filled(); lpn++ {
		if err := d.writePage(lpn); err != nil {
			return fmt.Errorf("fill page %d: %w", lpn, err)
		}
	}
	return nil
}

// op runs the i-th operation of a pattern and records its simulated
// latency. Every 64th read is checked against the shadow.
func (d *devRun) op(pattern string, i int) {
	n := d.filled()
	var err error
	t0 := d.clock.Now()
	switch pattern {
	case "seq_write":
		err = d.writePage(d.seq % n)
		d.seq++
	case "rand_write":
		err = d.writePage(d.rng.Int63n(n))
	case "rand_read":
		err = d.readPage(d.rng.Int63n(n), i%64 == 0)
	default: // 70% reads, 30% writes
		if d.rng.Intn(100) < 70 {
			err = d.readPage(d.rng.Int63n(n), i%64 == 0)
		} else {
			err = d.writePage(d.rng.Int63n(n))
		}
	}
	d.rec.attempted++
	if err != nil {
		d.rec.failed++
		if d.failed == nil {
			d.failed = err
		}
		return
	}
	d.rec.lat = append(d.rec.lat, d.clock.Now()-t0)
}

// round runs every pattern once, perPattern operations each.
func (d *devRun) round(perPattern int) {
	for _, pattern := range devPatterns {
		d.tr.begin(pattern)
		for i := 0; i < perPattern; i++ {
			if i%devBatch == 0 {
				if i > 0 {
					d.tr.end()
				}
				d.tr.begin("batch")
			}
			d.op(pattern, i)
		}
		if perPattern > 0 {
			d.tr.end() // the last batch
		}
		d.tr.end()
	}
}

// checkAll reads every written page back against the shadow.
func (d *devRun) checkAll() error {
	for lpn := int64(0); lpn < d.filled(); lpn++ {
		if err := d.readPage(lpn, true); err != nil {
			return err
		}
	}
	return nil
}

func newDevRun(pageSize int, store pageStore, clock *sim.ClockWaiter, seed int64, ops int, tr *tracer) *devRun {
	return &devRun{
		store:  store,
		clock:  clock,
		rng:    rand.New(rand.NewSource(seed)),
		shadow: make([]uint32, store.pages),
		buf:    make([]byte, pageSize),
		rec:    &opRecorder{lat: make([]sim.Time, 0, ops)},
		tr:     tr,
	}
}

func devDevice() *flash.Device {
	cfg := flash.EmulatorConfig(devDies, devCapacityMB, nand.SLC)
	cfg.Nand.StoreData = true
	return flash.New(cfg)
}

// buildNoFTL is dev_pattern's set-up: device, volume with inline GC,
// 90% fill, clocks and counters reset.
func buildNoFTL(seed int64, ops int, tr *tracer) (*devRun, *flash.Device, *noftl.Volume, error) {
	dev := devDevice()
	vol, err := noftl.New(dev, noftl.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	clock := &sim.ClockWaiter{}
	d := newDevRun(dev.Geometry().PageSize, noftlPages(vol, clock), clock, seed, ops, tr)
	if err := d.fill(); err != nil {
		return nil, nil, nil, err
	}
	dev.ResetTime()
	dev.ResetStats()
	clock.T = 0
	return d, dev, vol, nil
}

// devSnap captures a kernel-free run's counters in the shape the
// metrics read.
func devSnap(dev *flash.Device, fs ftl.Stats, now sim.Time) windowSnap {
	return takeSnap(system.Snapshot{Device: dev.Stats(), FTL: fs}, now)
}

// measureDev runs the sliced measure window of perPattern operations
// per pattern and slice.
func measureDev(m *measured, d *devRun, dev *flash.Device, stats func() ftl.Stats, perPattern int) {
	m.rec = d.rec
	m.geo = dev.Geometry()
	m.from = devSnap(dev, stats(), d.clock.Now())
	for i := 0; i < slicesPerWindow; i++ {
		d.tr.begin("slice")
		m.slice(func() { d.round(perPattern) })
		d.tr.end()
	}
	m.to = devSnap(dev, stats(), d.clock.Now())
	m.liveHeap = liveHeap()
	if d.failed != nil {
		m.problem("first failed page operation: %v", d.failed)
	}
	if err := d.checkAll(); err != nil {
		m.problem("output check: %v", err)
	}
}

// runFaster is the paper's comparison: the same patterns against FASTer
// behind the legacy block interface, reported per layer only.
func runFaster(seed int64, perPattern int, lc *layerCounters, noftlErasesPerKop float64) error {
	dev := devDevice()
	clock := &sim.ClockWaiter{}
	store, f, err := fasterPages(dev, clock)
	if err != nil {
		return err
	}
	d := newDevRun(dev.Geometry().PageSize, store, clock, seed, perPattern*len(devPatterns)*slicesPerWindow, nil)
	if err := d.fill(); err != nil {
		return err
	}
	dev.ResetTime()
	dev.ResetStats()
	clock.T = 0
	var m measured
	measureDev(&m, d, dev, f.Stats, perPattern)
	if len(m.problems) > 0 {
		return fmt.Errorf("faster: %s", m.problems[0])
	}
	erasesPerKop := m.perOp(float64(m.to.snap.Device.Erases-m.from.snap.Device.Erases) * 1000)
	lc.set("blockdev.faster_us_per_op", median(m.sliceUs))
	lc.set("blockdev.faster_lat_p99_us", summarize(m.rec.lat).us(99))
	lc.set("blockdev.faster_erases_per_kop", erasesPerKop)
	lc.set("blockdev.noftl_vs_faster_erase_ratio", ratio(erasesPerKop, noftlErasesPerKop))
	return nil
}

func runDevPattern(seed int64, seconds float64, traced bool, setups int, tr *tracer) (*measured, error) {
	perPattern := int(seconds*devOpsPerSecond) / (slicesPerWindow * len(devPatterns))
	ops := perPattern * slicesPerWindow * len(devPatterns)
	m := &measured{}
	var (
		d   *devRun
		dev *flash.Device
		vol *noftl.Volume
	)
	for i := 0; i < setups; i++ {
		tr.begin("setup")
		t0 := wallNs()
		var err error
		if d, dev, vol, err = buildNoFTL(seed, ops, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, wallSince(t0))
		tr.end()
	}
	tr.begin("measure")
	measureDev(m, d, dev, vol.Stats, perPattern)
	tr.end()
	if traced {
		noftlErases := m.perOp(float64(m.to.snap.Device.Erases-m.from.snap.Device.Erases) * 1000)
		if err := runFaster(seed, perPattern/fasterShare, &m.layers, noftlErases); err != nil {
			return nil, err
		}
	}
	return m, nil
}
