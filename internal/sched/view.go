package sched

import (
	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// view is a flash.Dev that issues every command through the scheduler.
// Host-side managers hold one (Scheduler.Dev) and stay oblivious to the
// scheduling.
//
// A command dispatches at the class its request declares — a descriptor
// handed down as the waiter (*ioreq.Req), set at the request's origin:
// the engine, a workload terminal, a prefetcher, a background worker.
// An undeclared command dispatches at its op type's class (opClass), or
// at the view's pinned class for a Bind view.
type view struct {
	s *Scheduler
	c Class // pinned fallback class; opType: the op type's class
}

// opType marks a view without a pinned class.
const opType = NumClasses

// opClass is the class an undeclared command of each op type dispatches
// at: reads are foreground, programs data writes, erases and copybacks
// maintenance.
var opClass = [...]Class{opRead: ClassRead, opProgram: ClassProgram, opPartial: ClassProgram,
	opErase: ClassGC, opCopyback: ClassGC}

// Dev returns the scheduler's device: every command dispatches at the
// class its request declares, else at its op type's class.
func (s *Scheduler) Dev() flash.Dev { return view{s: s, c: opType} }

// Bind returns a flash.Dev whose undeclared commands dispatch at class c
// instead of their op type's class. The stack uses Dev; Bind pins a class
// for probes and tests that drive the queues directly.
func (s *Scheduler) Bind(c Class) flash.Dev { return view{s: s, c: c} }

// Identify forwards the native IDENTIFY command.
func (v view) Identify() flash.Identity { return v.s.dev.Identify() }

// Geometry returns the device geometry.
func (v view) Geometry() nand.Geometry { return v.s.dev.Geometry() }

// Array exposes the underlying NAND array for state inspection.
func (v view) Array() *nand.Array { return v.s.dev.Array() }

// submit queues cmd on its die, parks the caller until the dispatcher
// completes it and returns the command's results. Serial callers (no DES
// process on this kernel) bypass the queues, and so does an address
// outside the geometry, which the device rejects. A request descriptor
// riding on the waiter declares the command's class (see view) and
// attaches its stream tag and deadline to the queued command.
//
// The queued descriptor comes from the scheduler's free list and goes
// back once the results are read: the dispatcher is done with it when it
// fires done (dieSched.finish).
//
// A telemetry span riding on the descriptor sees the whole parked
// window as its scheduler-queue stage; after completion, the service
// part (dispatch to end, known from the request's recorded dispatch
// time) is transferred to the die stage, splitting queue wait from die
// service exactly.
func (v view) submit(w sim.Waiter, cmd request) (nand.OOB, error) {
	s := v.s
	die, valid := cmd.die(s.geo)
	rq := ioreq.From(w)
	pw, ok := rq.W.(sim.ProcWaiter)
	if !valid || !ok || pw.P.Kernel() != s.k {
		if valid {
			s.stats.Bypassed++
		}
		s.issue(w, &cmd)
		return cmd.oobOut, cmd.err
	}
	var r *request
	if n := len(s.free); n > 0 {
		r, s.free = s.free[n-1], s.free[:n-1]
	} else {
		r = new(request)
	}
	*r = cmd
	r.class = v.c
	if c, declared := FromRequest(rq.Class); declared {
		r.class = c
	} else if v.c == opType {
		r.class = opClass[cmd.op]
	}
	r.tag, r.deadline = rq.Tag, rq.Deadline
	r.arrival = pw.P.Now()
	sp := rq.Span
	if sp != nil {
		sp.Cmds++
		sp.Enter(ioreq.StageSchedQ, r.arrival)
		r.span = sp.ID
	}
	s.dies[die].enqueue(r)
	r.done.Wait(pw.P)
	if sp != nil {
		end := pw.P.Now()
		sp.Exit(end)
		sp.Transfer(ioreq.StageSchedQ, ioreq.StageDie, end-r.start)
	}
	oob, err := r.oobOut, r.err
	*r = request{} // drop the caller's buffers while the descriptor idles
	s.free = append(s.free, r)
	return oob, err
}

// ReadPage implements flash.Dev.
func (v view) ReadPage(w sim.Waiter, p nand.PPN, buf []byte) (nand.OOB, error) {
	return v.submit(w, request{op: opRead, ppn: p, buf: buf})
}

// ProgramPage implements flash.Dev.
func (v view) ProgramPage(w sim.Waiter, p nand.PPN, data []byte, oob nand.OOB) error {
	_, err := v.submit(w, request{op: opProgram, ppn: p, data: data, oob: oob})
	return err
}

// ProgramPartial implements flash.Dev.
func (v view) ProgramPartial(w sim.Waiter, p nand.PPN, off int, data []byte, oob nand.OOB) error {
	_, err := v.submit(w, request{op: opPartial, ppn: p, off: off, data: data, oob: oob})
	return err
}

// EraseBlock implements flash.Dev.
func (v view) EraseBlock(w sim.Waiter, b nand.PBN) error {
	_, err := v.submit(w, request{op: opErase, pbn: b})
	return err
}

// Copyback implements flash.Dev.
func (v view) Copyback(w sim.Waiter, src, dst nand.PPN, oob nand.OOB) error {
	_, err := v.submit(w, request{op: opCopyback, ppn: src, dst: dst, oob: oob})
	return err
}

var _ flash.Dev = view{}
