// Package flash implements the paper's data-driven flash emulator: a
// multi-channel, multi-die NAND device exposing the native flash
// interface (READ PAGE, PROGRAM PAGE, COPYBACK, ERASE BLOCK, IDENTIFY).
//
// Timing follows the standard SSD queueing model: every die and every
// channel bus has a busy-until timeline; an operation arriving at time t
// is serialized FCFS on the resources it touches. Reads occupy the die
// (tR) and then the channel (transfer); programs transfer first, then
// occupy the die (tPROG); erases and copybacks occupy only the die —
// copyback never crosses the bus, which is exactly why the paper reports
// copybacks separately from host I/O.
//
// The same device runs in two modes depending on the sim.Waiter the
// caller passes: deterministic virtual time (sim.ProcWaiter) or serial
// counting-only replay (sim.ClockWaiter).
package flash

import (
	"fmt"

	"noftl/internal/nand"
	"noftl/internal/sim"
)

// Config describes a device to emulate.
type Config struct {
	Geometry nand.Geometry
	Cell     nand.CellType
	// ChannelMBps is the per-channel bus bandwidth. 0 defaults to 200 MB/s
	// (ONFI 2.x class).
	ChannelMBps int
	// Nand configures data storage and failure injection.
	Nand nand.Options
}

// cmdOverhead is the fixed controller/command cycle cost added to every
// operation.
const cmdOverhead = 2 * sim.Microsecond

func (c Config) withDefaults() Config {
	if c.ChannelMBps == 0 {
		c.ChannelMBps = 200
	}
	return c
}

// Identity is what the IDENTIFY command returns: everything a host needs
// to manage the device natively (the flash analog of HDIO_GETGEO).
type Identity struct {
	Geometry     nand.Geometry
	Cell         nand.CellType
	Timing       nand.Timing
	TransferPage sim.Time // per-page channel transfer time
	CmdOverhead  sim.Time // fixed controller cost per command
	Endurance    int      // erase budget per block
	// PartialProgramsPerPage is the NOP budget: how many times a page can
	// be programmed between erases via PROGRAM PARTIAL (append-only).
	PartialProgramsPerPage int
}

// Dev is the native flash command interface: the set of operations
// *Device implements directly and that a command scheduler (package
// sched) re-exports with priority classes. Host-side flash management
// code programs against Dev so a scheduler can be interposed without it
// noticing.
type Dev interface {
	Identify() Identity
	Geometry() nand.Geometry
	Array() *nand.Array
	ReadPage(w sim.Waiter, p nand.PPN, buf []byte) (nand.OOB, error)
	// ProgramPage programs a whole page. data is copied before
	// ProgramPage returns; the caller may reuse it at once.
	ProgramPage(w sim.Waiter, p nand.PPN, data []byte, oob nand.OOB) error
	// ProgramPartial appends data at offset off of the page. data is
	// copied before ProgramPartial returns; the caller may reuse it at
	// once.
	ProgramPartial(w sim.Waiter, p nand.PPN, off int, data []byte, oob nand.OOB) error
	EraseBlock(w sim.Waiter, b nand.PBN) error
	// Copyback moves page src to the erased page dst of the same plane
	// with oob as the target's OOB. The data stays inside the die: no
	// channel transfer, and no host copy either, because the array lets
	// the target share the source's page image.
	Copyback(w sim.Waiter, src, dst nand.PPN, oob nand.OOB) error
}

// Stats is a snapshot of device operation counters and busy times.
type Stats struct {
	Reads           int64
	Programs        int64
	PartialPrograms int64
	ProgramBytes    int64 // bytes programmed over the bus (full + partial)
	Erases          int64
	Copybacks       int64
	ReadTime        sim.Time
	ProgramTime     sim.Time
	EraseTime       sim.Time
	CopybackTime    sim.Time
	DieBusy         []sim.Time // per-die accumulated service time
	ChannelBusy     []sim.Time // per-channel accumulated transfer time
}

// Device is the emulated native-flash device. It is not safe for
// concurrent use: the simulation kernel runs one process at a time.
type Device struct {
	cfg      Config
	arr      *nand.Array
	timing   nand.Timing // the cell type's latencies
	xferPage sim.Time
	dieBusy  []sim.Time
	chBusy   []sim.Time
	stats    Stats
	onReset  func()
}

// New builds a device from cfg. Invalid geometry panics (it is a
// programming-time constant).
func New(cfg Config) *Device {
	cfg = cfg.withDefaults()
	geo := cfg.Geometry
	d := &Device{
		cfg:      cfg,
		arr:      nand.NewArray(geo, cfg.Cell, cfg.Nand),
		timing:   cfg.Cell.Timing(),
		xferPage: sim.Time(int64(geo.PageSize+geo.OOBSize) * 1000 / int64(cfg.ChannelMBps)),
		dieBusy:  make([]sim.Time, geo.Dies()),
		chBusy:   make([]sim.Time, geo.Channels),
		onReset:  func() {},
	}
	d.stats.DieBusy = make([]sim.Time, geo.Dies())
	d.stats.ChannelBusy = make([]sim.Time, geo.Channels)
	return d
}

// Identify implements the identification command of the native interface.
func (d *Device) Identify() Identity {
	return Identity{
		Geometry:     d.cfg.Geometry,
		Cell:         d.cfg.Cell,
		Timing:       d.timing,
		TransferPage: d.xferPage,
		CmdOverhead:  cmdOverhead,
		Endurance:    d.arr.Endurance(),

		PartialProgramsPerPage: d.arr.MaxPartialPrograms(),
	}
}

// Geometry returns the device geometry (shorthand for Identify().Geometry).
func (d *Device) Geometry() nand.Geometry { return d.cfg.Geometry }

// Array exposes the underlying NAND array for state inspection (wear,
// bad blocks, page states). Mutating it directly bypasses timing.
func (d *Device) Array() *nand.Array { return d.arr }

// Stats returns a snapshot of operation counters.
func (d *Device) Stats() Stats {
	s := d.stats
	s.DieBusy = append([]sim.Time(nil), d.stats.DieBusy...)
	s.ChannelBusy = append([]sim.Time(nil), d.stats.ChannelBusy...)
	return s
}

// DieBusy returns one die's accumulated service time without copying
// the full stats snapshot (health probes call it per die per sample).
func (d *Device) DieBusy(die int) sim.Time {
	if die < 0 || die >= len(d.stats.DieBusy) {
		return 0
	}
	return d.stats.DieBusy[die]
}

// OnReset sets the one hook that runs after every ResetTime or
// ResetStats, replacing any earlier one. The attached command scheduler
// uses it to clear its own queue-wait accounting, so back-to-back bench
// phases spliced with resets cannot inherit stale per-die busy
// projections or wait counters; a scheduler built after a restart
// replaces the crashed one's, which the device then no longer holds.
func (d *Device) OnReset(fn func()) { d.onReset = fn }

// ResetTime rewinds the die and channel timelines to zero. Experiments
// use it to splice phases that run on different timelines (e.g. a serial
// load phase followed by a DES measurement phase starting at time 0).
func (d *Device) ResetTime() {
	for i := range d.dieBusy {
		d.dieBusy[i] = 0
	}
	for i := range d.chBusy {
		d.chBusy[i] = 0
	}
	d.onReset()
}

// ResetStats zeroes the operation counters (timelines are preserved).
func (d *Device) ResetStats() {
	d.stats = Stats{
		DieBusy:     make([]sim.Time, len(d.dieBusy)),
		ChannelBusy: make([]sim.Time, len(d.chBusy)),
	}
	d.onReset()
}

// ReadPage executes READ PAGE: tR on the die, then the transfer on the
// die's channel. The caller's Waiter experiences the full latency.
func (d *Device) ReadPage(w sim.Waiter, p nand.PPN, buf []byte) (nand.OOB, error) {
	if !d.cfg.Geometry.ValidPPN(p) {
		return nand.OOB{}, fmt.Errorf("flash: read: %w", errAddr(p))
	}
	die := d.cfg.Geometry.DieOf(p)
	ch := d.cfg.Geometry.ChannelOfDie(die)
	arrival := w.Now()

	start := max(arrival, d.dieBusy[die])
	readEnd := start + cmdOverhead + d.timing.ReadPage
	xferStart := max(readEnd, d.chBusy[ch])
	end := xferStart + d.xferPage
	d.dieBusy[die] = end // die holds the page register until transfer ends
	d.chBusy[ch] = end
	oob, err := d.arr.ReadPage(p, buf)
	d.stats.Reads++
	d.stats.ReadTime += end - start
	d.stats.DieBusy[die] += end - start
	d.stats.ChannelBusy[ch] += end - xferStart

	w.WaitUntil(end)
	return oob, err
}

// ProgramPage executes PROGRAM PAGE: transfer on the channel, then tPROG
// on the die.
func (d *Device) ProgramPage(w sim.Waiter, p nand.PPN, data []byte, oob nand.OOB) error {
	if !d.cfg.Geometry.ValidPPN(p) {
		return fmt.Errorf("flash: program: %w", errAddr(p))
	}
	die := d.cfg.Geometry.DieOf(p)
	ch := d.cfg.Geometry.ChannelOfDie(die)
	arrival := w.Now()

	xferStart := max(arrival, d.chBusy[ch])
	xferEnd := xferStart + cmdOverhead + d.xferPage
	progStart := max(xferEnd, d.dieBusy[die])
	end := progStart + d.timing.ProgramPage
	d.chBusy[ch] = xferEnd
	d.dieBusy[die] = end
	err := d.arr.ProgramPage(p, data, oob)
	d.stats.Programs++
	d.stats.ProgramBytes += int64(d.cfg.Geometry.PageSize)
	d.stats.ProgramTime += end - xferStart
	d.stats.DieBusy[die] += end - progStart
	d.stats.ChannelBusy[ch] += xferEnd - xferStart

	w.WaitUntil(end)
	return err
}

// ProgramPartial executes PROGRAM PARTIAL: an append-only sub-page
// program (NAND NOP semantics, see nand.Array.ProgramPartial). The bus
// and the die are occupied proportionally to the fragment size — the
// property that makes in-place appends cheap on native flash: a 64-byte
// delta costs ~1/64th of a 4 KiB page program instead of a full one.
func (d *Device) ProgramPartial(w sim.Waiter, p nand.PPN, off int, data []byte, oob nand.OOB) error {
	if !d.cfg.Geometry.ValidPPN(p) {
		return fmt.Errorf("flash: program partial: %w", errAddr(p))
	}
	die := d.cfg.Geometry.DieOf(p)
	ch := d.cfg.Geometry.ChannelOfDie(die)
	arrival := w.Now()

	frac := func(t sim.Time) sim.Time {
		return max(1, sim.Time(int64(t)*int64(len(data))/int64(d.cfg.Geometry.PageSize)))
	}
	xferStart := max(arrival, d.chBusy[ch])
	xferEnd := xferStart + cmdOverhead + frac(d.xferPage)
	progStart := max(xferEnd, d.dieBusy[die])
	end := progStart + frac(d.timing.ProgramPage)
	d.chBusy[ch] = xferEnd
	d.dieBusy[die] = end
	err := d.arr.ProgramPartial(p, off, data, oob)
	d.stats.PartialPrograms++
	d.stats.ProgramBytes += int64(len(data))
	d.stats.ProgramTime += end - xferStart
	d.stats.DieBusy[die] += end - progStart
	d.stats.ChannelBusy[ch] += xferEnd - xferStart

	w.WaitUntil(end)
	return err
}

// EraseBlock executes BLOCK ERASE: tBERS on the die, no bus traffic.
func (d *Device) EraseBlock(w sim.Waiter, b nand.PBN) error {
	if !d.cfg.Geometry.ValidPBN(b) {
		return fmt.Errorf("flash: erase: %w", errAddr(nand.PPN(b)))
	}
	die := d.cfg.Geometry.DieOfBlock(b)
	arrival := w.Now()

	start := max(arrival, d.dieBusy[die])
	end := start + cmdOverhead + d.timing.EraseBlock
	d.dieBusy[die] = end
	err := d.arr.EraseBlock(b)
	d.stats.Erases++
	d.stats.EraseTime += end - start
	d.stats.DieBusy[die] += end - start

	w.WaitUntil(end)
	return err
}

// EraseChunk accounts one chunk of a scheduler-run BLOCK ERASE: `dur` of
// die occupancy that ended at the waiter's current time. A command
// scheduler that suspends and resumes erases owns the erase's wall-clock
// placement (the die must stay free for the reads served during a
// suspension), so the device cannot reserve the timeline up front the
// way EraseBlock does; instead the scheduler reports each executed chunk
// after the fact. commit applies the erase to the array — the final
// chunk. The die timeline advances to the chunk's end so later commands
// queue behind it.
func (d *Device) EraseChunk(w sim.Waiter, b nand.PBN, dur sim.Time, commit bool) error {
	if !d.cfg.Geometry.ValidPBN(b) {
		return fmt.Errorf("flash: erase chunk: %w", errAddr(nand.PPN(b)))
	}
	die := d.cfg.Geometry.DieOfBlock(b)
	now := w.Now()

	if now > d.dieBusy[die] {
		d.dieBusy[die] = now
	}
	var err error
	if commit {
		err = d.arr.EraseBlock(b)
		d.stats.Erases++
	}
	d.stats.EraseTime += dur
	d.stats.DieBusy[die] += dur
	return err
}

// Copyback executes COPYBACK PROGRAM: tR + tPROG entirely inside the die;
// the data never crosses the channel. Source and target must share a
// plane (nand.ErrCrossPlane otherwise).
func (d *Device) Copyback(w sim.Waiter, src, dst nand.PPN, oob nand.OOB) error {
	if !d.cfg.Geometry.ValidPPN(src) || !d.cfg.Geometry.ValidPPN(dst) {
		return fmt.Errorf("flash: copyback: %w", errAddr(src))
	}
	die := d.cfg.Geometry.DieOf(src)
	arrival := w.Now()

	start := max(arrival, d.dieBusy[die])
	end := start + cmdOverhead + d.timing.ReadPage + d.timing.ProgramPage
	d.dieBusy[die] = end
	err := d.arr.Copyback(src, dst, oob)
	d.stats.Copybacks++
	d.stats.CopybackTime += end - start
	d.stats.DieBusy[die] += end - start

	w.WaitUntil(end)
	return err
}

var _ Dev = (*Device)(nil)

func errAddr(p nand.PPN) error { return fmt.Errorf("%w (%d)", nand.ErrBadAddress, p) }
