// Package sched implements a native flash command scheduler: the layer
// the NoFTL architecture puts between host-side flash management and the
// raw device so the DBMS — not device firmware — decides how commands
// interleave on every die.
//
// Each die gets a command queue and a dispatcher: a state machine driven
// by timed events on the DES kernel, as the hardware it models is — it
// owns no process, so a command costs its submitter's one resume and
// nothing more. Commands carry a priority class (foreground read > WAL
// append > data program > prefetch read > GC work) and the dispatcher
// serves the highest-priority hazard-free command first; under the FCFS
// policy it degrades to plain arrival order, which is what an on-device
// FTL behind a legacy interface effectively gives the host. Because reordering must
// never break flash state dependencies, the dispatcher tracks hazards:
// a read never overtakes a pending program to the same page, and nothing
// overtakes a pending erase of its own block.
//
// Erases are the latency killers (tBERS is ~60x tR on SLC), so the
// dispatcher runs them suspendable: when a foreground read arrives while
// an erase is in flight, the erase is suspended (ERASE SUSPEND latency),
// the read is served, and the erase resumes with a resume penalty —
// bounding read tail latency at roughly tSUS+tR instead of tBERS.
// Suspensions per erase are capped so erases cannot starve.
//
// Queue waits and erase suspensions are accounted per class here, and
// only here (Stats); the optional Trace hook emits one Event per command
// for offline analysis (the system's command log, System.CmdLog).
//
// Serial callers (sim.ClockWaiter phases: loads, trace replays, rebuild
// scans) bypass the queues entirely — there is nothing to schedule when
// one synchronous client owns the device.
package sched

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// Class is a command priority class. Lower values are served first under
// the Priority policy.
type Class uint8

// Priority classes, highest first.
const (
	ClassRead     Class = iota // foreground page reads (query latency)
	ClassWAL                   // log appends (commit path)
	ClassProgram               // data page programs and delta appends
	ClassPrefetch              // speculative read-ahead (analytical scans)
	ClassGC                    // GC copies, folds, erases, wear moves
	NumClasses
)

// FromRequest maps a request descriptor's declared class (ioreq.Class)
// onto a scheduler class. It reports false for ClassDefault (or an
// out-of-range value): the command then dispatches at its op type's
// class.
func FromRequest(c ioreq.Class) (Class, bool) {
	if c == ioreq.ClassDefault || c > ioreq.ClassGC {
		return 0, false
	}
	return Class(c - 1), true
}

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWAL:
		return "wal"
	case ClassProgram:
		return "program"
	case ClassPrefetch:
		return "prefetch"
	case ClassGC:
		return "gc"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Policy selects the queue discipline.
type Policy uint8

// Queue disciplines.
const (
	// FCFS serves commands in arrival order (the firmware-FTL baseline).
	FCFS Policy = iota
	// Priority serves the highest class first and suspends in-flight
	// erases for queued reads.
	Priority
)

// String names the policy.
func (p Policy) String() string {
	if p == Priority {
		return "priority"
	}
	return "fcfs"
}

// Config tunes a Scheduler.
type Config struct {
	// Policy selects the queue discipline. Default FCFS.
	Policy Policy
	// Trace receives one Event per dispatched command (nil: off). It runs
	// inside the kernel's event loop, on whichever goroutine holds it, so
	// it must not block: a hook that parks a process panics with "sim:
	// blocking call from an event callback".
	Trace func(Event)
}

const (
	// maxSuspends bounds suspensions per erase so reads cannot starve an
	// erase forever.
	maxSuspends = 4
	// gcAgeLimit promotes a GC command that has waited longer than this
	// to the head of its die's queue (starvation guard for free-block
	// reclamation under read-heavy load).
	gcAgeLimit = 10 * sim.Millisecond
)

// Stats is scheduler-level accounting. The per-class rows count the
// class each command actually dispatched at: the class its request
// declared (ioreq), else its op type's class.
type Stats struct {
	Scheduled     [NumClasses]int64    // commands dispatched per class
	QueueWait     [NumClasses]sim.Time // accumulated queue wait per class
	MaxWait       [NumClasses]sim.Time // worst queue wait per class
	Bypassed      int64                // serial commands that skipped the queues
	EraseSuspends int64
	Promotions    int64 // aged GC commands served ahead of their class
	// DeadlinePromotions counts commands served ahead of their class
	// because their request deadline had passed.
	DeadlinePromotions int64
}

// MeanWait returns the average queue wait of a class.
func (s *Stats) MeanWait(c Class) sim.Time {
	if s.Scheduled[c] == 0 {
		return 0
	}
	return s.QueueWait[c] / sim.Time(s.Scheduled[c])
}

// TotalScheduled sums dispatched commands over all classes.
func (s *Stats) TotalScheduled() int64 {
	var n int64
	for _, v := range s.Scheduled {
		n += v
	}
	return n
}

// Event describes one dispatched command for the trace hook.
type Event struct {
	Die      int
	Class    Class
	Tag      uint32 // request stream tag (0: untagged)
	Op       string // "read","program","partial","erase","copyback"
	Arrival  sim.Time
	Start    sim.Time // dispatch time (Start-Arrival is the queue wait)
	End      sim.Time
	Suspends int // erase suspensions taken during this command
	// Span is the telemetry span the command's request rode on (0: none);
	// it joins the command log against retained ioreq.Spans for blame
	// attribution.
	Span uint64
	// Block is the physical block the command mutates — the program
	// target for program/partial/copyback, the erased block for erase,
	// -1 for reads. It feeds same-block program-order hazard
	// classification in blame analysis.
	Block int64
}

// Command op kinds.
const (
	opRead uint8 = iota
	opProgram
	opPartial
	opErase
	opCopyback
)

// opNames is Event.Op for each op kind.
var opNames = [...]string{opRead: "read", opProgram: "program", opPartial: "partial", opErase: "erase", opCopyback: "copyback"}

// request is one queued command. Queue position (the reqs slice) is the
// arrival order; there is no separate sequence number.
type request struct {
	op       uint8
	class    Class
	tag      uint32   // request stream tag (trace attribution)
	span     uint64   // telemetry span ID riding the request (0: none)
	deadline sim.Time // past it, the command outranks its class (0: none)
	arrival  sim.Time
	start    sim.Time // dispatch time (set by account; spans split queue/die on it)

	ppn  nand.PPN // read/program/partial target, copyback source
	dst  nand.PPN // copyback destination
	pbn  nand.PBN // erase target
	off  int
	data []byte
	oob  nand.OOB
	buf  []byte

	oobOut     nand.OOB
	err        error
	promoted   bool
	dlPromoted bool
	done       sim.Signal
}

// touches returns the pages a non-erase command reads or programs.
func (r *request) touches() (a, b nand.PPN, n int) {
	switch r.op {
	case opRead, opProgram, opPartial:
		return r.ppn, 0, 1
	case opCopyback:
		return r.ppn, r.dst, 2
	default:
		return 0, 0, 0
	}
}

// die returns the die a command queues on, and whether its addresses lie
// inside the geometry.
func (r *request) die(geo nand.Geometry) (int, bool) {
	switch r.op {
	case opErase:
		return geo.DieOfBlock(r.pbn), geo.ValidPBN(r.pbn)
	case opCopyback:
		return geo.DieOf(r.ppn), geo.ValidPPN(r.ppn) && geo.ValidPPN(r.dst)
	default:
		return geo.DieOf(r.ppn), geo.ValidPPN(r.ppn)
	}
}

// programTarget returns the block a command programs into, if any
// (programs and partials target their page's block, copybacks their
// destination's).
func (r *request) programTarget(geo nand.Geometry) (nand.PBN, bool) {
	switch r.op {
	case opProgram, opPartial:
		return geo.BlockOf(r.ppn), true
	case opCopyback:
		return geo.BlockOf(r.dst), true
	default:
		return 0, false
	}
}

// conflict reports whether two commands on the same die must not be
// reordered: they touch the same page, they program into the same block
// (NAND requires pages of a block to be programmed in order, so two
// programs to one block must keep their arrival order even across
// priority classes), or one erases the block the other touches.
// Serving them in arrival order is always safe.
func conflict(geo nand.Geometry, a, b *request) bool {
	if pa, ok := a.programTarget(geo); ok {
		if pb, ok := b.programTarget(geo); ok && pa == pb {
			return true
		}
	}
	if a.op == opErase || b.op == opErase {
		if a.op == opErase && b.op == opErase {
			return a.pbn == b.pbn
		}
		er, other := a, b
		if b.op == opErase {
			er, other = b, a
		}
		p1, p2, n := other.touches()
		if n >= 1 && geo.BlockOf(p1) == er.pbn {
			return true
		}
		if n >= 2 && geo.BlockOf(p2) == er.pbn {
			return true
		}
		return false
	}
	a1, a2, an := a.touches()
	b1, b2, bn := b.touches()
	if an >= 1 && bn >= 1 && a1 == b1 {
		return true
	}
	if an >= 1 && bn >= 2 && a1 == b2 {
		return true
	}
	if an >= 2 && bn >= 1 && a2 == b1 {
		return true
	}
	if an >= 2 && bn >= 2 && a2 == b2 {
		return true
	}
	return false
}

// Scheduler is the native command scheduler over one flash device.
type Scheduler struct {
	k     *sim.Kernel
	dev   *flash.Device
	cfg   Config
	id    flash.Identity
	geo   nand.Geometry
	dies  []*dieSched
	stats Stats
	// free holds request descriptors between commands: a submitter takes
	// one, queues it, and returns it once it has read the results. At
	// most one descriptor per parked submitter is ever out, which bounds
	// the list.
	free []*request
}

// New builds a scheduler over dev on kernel k. It starts no process: each
// die's dispatcher is a state machine that advances inside kernel events
// (Kernel.After), on whichever goroutine holds the event loop. The
// scheduler takes the device's reset hook so ResetTime/ResetStats clear
// its wait accounting along with the device's.
func New(k *sim.Kernel, dev *flash.Device, cfg Config) *Scheduler {
	s := &Scheduler{k: k, dev: dev, cfg: cfg, id: dev.Identify(), geo: dev.Geometry()}
	for die := 0; die < s.geo.Dies(); die++ {
		ds := &dieSched{s: s, die: die}
		ds.wakeFn, ds.deadlineFn = ds.wake, ds.deadline
		ds.await()
		s.dies = append(s.dies, ds)
	}
	dev.OnReset(s.Reset)
	return s
}

// Policy returns the configured queue discipline.
func (s *Scheduler) Policy() Policy { return s.cfg.Policy }

// Stats returns a snapshot of scheduler accounting.
func (s *Scheduler) Stats() Stats { return s.stats }

// Reset clears the scheduler's wait accounting. The device calls it from
// ResetTime/ResetStats via OnReset; queued commands (none between bench
// phases) are unaffected.
func (s *Scheduler) Reset() { s.stats = Stats{} }

// QueueDepth reports the number of commands currently queued on a die.
func (s *Scheduler) QueueDepth(die int) int { return len(s.dies[die].reqs) }

// QueueDepths reports every die's current queue depth (index = die) —
// the health probe's per-die load row.
func (s *Scheduler) QueueDepths() []int {
	out := make([]int, len(s.dies))
	for i, d := range s.dies {
		out[i] = len(d.reqs)
	}
	return out
}

// dieState says what the event a die has pending (at most one, stale
// erase deadlines aside) will find when it fires.
type dieState uint8

const (
	dieIdle    dieState = iota // nothing to serve; an enqueue schedules the wake
	dieServing                 // cur holds the die until its completion time
	dieSlice                   // inErase is running a slice of its remaining time
	dieSuspend                 // inErase is suspending (tSUS) for urgent commands
)

// dieSched is one die's queue plus its dispatcher: a state machine that
// advances only inside kernel events (wake, and deadline for a
// suspendable erase slice), never on a process of its own.
type dieSched struct {
	s     *Scheduler
	die   int
	reqs  []*request
	state dieState
	// waiting marks a wait that interrupt may cut short (idle, or an
	// erase slice short of maxSuspends).
	waiting   bool
	preempted bool // the last such wait ended by interrupt, not by its deadline
	// sliceEnd is when the interruptible slice in service ends. Each
	// resume adds tSUS and tRES to what is left of the erase, so a slice
	// that was interrupted had an earlier end: its deadline, still to fire,
	// finds itself stale.
	sliceEnd   sim.Time
	wakeFn     func()   // ds.wake, bound once
	deadlineFn func()   // ds.deadline, bound once
	cur        *request // the command in service while dieServing

	// The suspendable erase in service, if any (Priority policy only).
	inErase    *request // also the suspension hazard source
	remaining  sim.Time // erase time still to run, from sliceStart
	sliceStart sim.Time
	slice      sim.Time // length of the slice just interrupted
	suspends   int

	clock sim.ClockWaiter // what commands issue on: one is in service at a time
}

// suspendsErase reports whether a command class is urgent enough to
// suspend an in-flight erase: foreground reads (query latency) and WAL
// appends (commit latency). tBERS is the one device latency the commit
// path must never eat whole.
func suspendsErase(c Class) bool { return c <= ClassWAL }

// enqueue adds a request and pokes the dispatcher: an idle die wakes to
// serve it; an erasing die is interrupted only by a command urgent enough
// to suspend the erase. The state is the one the pending wake will find,
// so until it fires further enqueues find the wait over and draw nothing.
func (ds *dieSched) enqueue(r *request) {
	ds.reqs = append(ds.reqs, r)
	if ds.state == dieIdle || ds.state == dieSlice && suspendsErase(r.class) {
		ds.interrupt()
	}
}

// await opens an interruptible wait.
func (ds *dieSched) await() {
	ds.waiting, ds.preempted = true, false
}

// interrupt ends an interruptible wait now: the wake runs at this
// instant, after the events already scheduled for it. Once the wait is
// over — interrupted already, or its deadline has fired and the wake is
// on its way — there is nothing to interrupt.
func (ds *dieSched) interrupt() {
	if !ds.waiting {
		return
	}
	ds.waiting, ds.preempted = false, true
	ds.s.k.After(0, ds.wakeFn)
}

// blocked reports whether reqs[i] has a hazard against an older pending
// request or the in-flight erase. The oldest request is never blocked,
// so the queue always drains.
func (ds *dieSched) blocked(i int) bool {
	r := ds.reqs[i]
	if ds.inErase != nil && conflict(ds.s.geo, ds.inErase, r) {
		return true
	}
	for j := 0; j < i; j++ {
		if conflict(ds.s.geo, ds.reqs[j], r) {
			return true
		}
	}
	return false
}

// effClass is the class used for ordering: GC commands past the age
// limit are promoted to the front so sustained foreground traffic cannot
// starve free-block reclamation, and a command whose request deadline
// has passed outranks its class (the descriptor's QoS escape hatch).
func (ds *dieSched) effClass(r *request, now sim.Time) Class {
	if r.deadline > 0 && now >= r.deadline && r.class > ClassRead {
		return ClassRead
	}
	if r.class == ClassGC && now-r.arrival > gcAgeLimit {
		return ClassRead
	}
	return r.class
}

// pop removes and returns the next hazard-free command: the oldest under
// FCFS, the best (class, then arrival) under Priority. urgentOnly
// restricts candidates to erase-suspending classes (the suspension
// window).
func (ds *dieSched) pop(urgentOnly bool) *request {
	if len(ds.reqs) == 0 {
		return nil
	}
	now := ds.s.k.Now()
	prio := ds.s.cfg.Policy == Priority
	best := -1
	for i, r := range ds.reqs {
		if urgentOnly && !suspendsErase(r.class) {
			continue
		}
		if ds.blocked(i) {
			continue
		}
		if best < 0 {
			best = i
			if !prio {
				break
			}
			continue
		}
		if prio && ds.effClass(r, now) < ds.effClass(ds.reqs[best], now) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	r := ds.reqs[best]
	if prio && ds.effClass(r, now) != r.class {
		if r.deadline > 0 && now >= r.deadline {
			r.dlPromoted = true
		} else if r.class == ClassGC {
			r.promoted = true
		}
	}
	ds.reqs = append(ds.reqs[:best], ds.reqs[best+1:]...)
	return r
}

// account records the queue wait of a command being dispatched.
func (ds *dieSched) account(r *request, now sim.Time) {
	r.start = now
	wait := now - r.arrival
	st := &ds.s.stats
	st.Scheduled[r.class]++
	st.QueueWait[r.class] += wait
	if wait > st.MaxWait[r.class] {
		st.MaxWait[r.class] = wait
	}
	if r.promoted {
		st.Promotions++
	}
	if r.dlPromoted {
		st.DeadlinePromotions++
	}
}

// issue submits the command to the device on w. With a ClockWaiter the
// call returns immediately, leaving the completion time in the clock —
// the device commits state and reserves its timelines synchronously.
func (s *Scheduler) issue(w sim.Waiter, r *request) {
	dev := s.dev
	switch r.op {
	case opRead:
		r.oobOut, r.err = dev.ReadPage(w, r.ppn, r.buf)
	case opProgram:
		r.err = dev.ProgramPage(w, r.ppn, r.data, r.oob)
	case opPartial:
		r.err = dev.ProgramPartial(w, r.ppn, r.off, r.data, r.oob)
	case opCopyback:
		r.err = dev.Copyback(w, r.ppn, r.dst, r.oob)
	case opErase:
		r.err = dev.EraseBlock(w, r.pbn)
	}
}

// wake is the die's event: the wait its state names is over. It settles
// that state and dispatches until the die waits again.
func (ds *dieSched) wake() {
	s, now := ds.s, ds.s.k.Now()
	switch ds.state {
	case dieIdle:
	case dieServing:
		ds.finish(ds.cur, 0)
	case dieSlice:
		if ds.preempted {
			// Suspended: the die is free for urgent commands after tSUS.
			ds.slice = now - ds.sliceStart
			ds.suspends++
			s.stats.EraseSuspends++
			ds.state = dieSuspend
			s.k.After(s.id.Timing.EraseSuspend, ds.wakeFn)
			return
		}
		ds.clock.T = now
		ds.finishErase(s.dev.EraseChunk(&ds.clock, ds.inErase.pbn, now-ds.sliceStart, true))
	case dieSuspend:
		// Charge the executed chunk to the device; the array state commits
		// with the final one.
		ds.clock.T = now
		if err := s.dev.EraseChunk(&ds.clock, ds.inErase.pbn, ds.slice+s.id.Timing.EraseSuspend, false); err != nil {
			ds.finishErase(err)
			break
		}
		ds.remaining = max(ds.remaining-ds.slice, sim.Microsecond)
	}
	ds.dispatch()
}

// dispatch starts the next command: one in service per die at a time.
// Inside an erase's suspension window only urgent commands are served,
// then the erase resumes with tRES added to its remaining time.
func (ds *dieSched) dispatch() {
	s := ds.s
	if ds.inErase != nil {
		if r := ds.pop(true); r != nil {
			ds.serve(r)
			return
		}
		ds.remaining += s.id.Timing.EraseResume
		ds.runSlice()
		return
	}
	r := ds.pop(false)
	if r == nil {
		ds.state = dieIdle
		ds.await()
		return
	}
	if r.op != opErase || s.cfg.Policy != Priority {
		ds.serve(r)
		return
	}
	// An erase with suspension: the die runs it until either it completes
	// or an urgent command arrives.
	ds.account(r, s.k.Now())
	ds.inErase = r
	ds.remaining = s.id.CmdOverhead + s.id.Timing.EraseBlock
	ds.suspends = 0
	ds.runSlice()
}

// serve dispatches one non-suspendable command: reserve the device
// timeline now and hold the die until the completion time, when wake
// releases the submitter. With a ClockWaiter the device call returns at
// once, leaving the completion time in the clock.
func (ds *dieSched) serve(r *request) {
	now := ds.s.k.Now()
	ds.account(r, now)
	ds.clock.T = now
	ds.s.issue(&ds.clock, r)
	ds.state, ds.cur = dieServing, r
	ds.s.k.After(ds.clock.T-now, ds.wakeFn)
}

// runSlice runs the erase for its remaining time, interruptibly unless it
// has been suspended maxSuspends times already.
func (ds *dieSched) runSlice() {
	k := ds.s.k
	ds.state = dieSlice
	ds.sliceStart = k.Now()
	if ds.suspends >= maxSuspends {
		ds.preempted = false
		k.After(ds.remaining, ds.wakeFn)
		return
	}
	ds.await()
	ds.sliceEnd = ds.sliceStart + ds.remaining
	k.After(ds.remaining, ds.deadlineFn)
}

// deadline is an interruptible slice's end: unless an interrupt came
// first or the slice is an earlier one, the erase chunk completes now, in
// this event.
func (ds *dieSched) deadline() {
	if ds.waiting && ds.state == dieSlice && ds.s.k.Now() == ds.sliceEnd {
		ds.waiting = false
		ds.wake()
	}
}

// finishErase completes the erase in service with err.
func (ds *dieSched) finishErase(err error) {
	r := ds.inErase
	r.err = err
	ds.inErase = nil
	ds.finish(r, ds.suspends)
}

// finish emits the trace event and releases the submitter. Firing done
// is the last thing the dispatcher does with r — wake reads no field of
// it afterwards — because the woken submitter hands the descriptor back
// to Scheduler.free for the next command to overwrite.
func (ds *dieSched) finish(r *request, suspends int) {
	if tr := ds.s.cfg.Trace; tr != nil {
		block := int64(-1)
		if r.op == opErase {
			block = int64(r.pbn)
		} else if pbn, ok := r.programTarget(ds.s.geo); ok {
			block = int64(pbn)
		}
		tr(Event{
			Die:      ds.die,
			Class:    r.class,
			Tag:      r.tag,
			Op:       opNames[r.op],
			Arrival:  r.arrival,
			Start:    r.start,
			End:      ds.s.k.Now(),
			Suspends: suspends,
			Span:     r.span,
			Block:    block,
		})
	}
	r.done.Fire()
}
