package sched

import (
	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// view is a flash.Dev that issues every command through the scheduler at
// a fixed priority class. Host-side managers hold one view per command
// class (noftl.ClassDevs) and stay oblivious to the scheduling.
//
// The view's class is the op-type default: a request descriptor handed
// down as the waiter (*ioreq.Req) that declares a class overrides it, so
// the die queue dispatches on the class the request declared at its
// origin — the engine, a workload terminal, a prefetcher, a background
// worker — rather than on whichever device view the volume happened to
// route the command through.
type view struct {
	s *Scheduler
	c Class
}

// Bind returns a flash.Dev issuing commands at class c.
func (s *Scheduler) Bind(c Class) flash.Dev { return view{s: s, c: c} }

// Identify forwards the native IDENTIFY command.
func (v view) Identify() flash.Identity { return v.s.dev.Identify() }

// Geometry returns the device geometry.
func (v view) Geometry() nand.Geometry { return v.s.dev.Geometry() }

// Array exposes the underlying NAND array for state inspection.
func (v view) Array() *nand.Array { return v.s.dev.Array() }

// submit queues r on the die and parks the caller until the dispatcher
// completes it. It reports false for serial callers (no DES process on
// this kernel), who must bypass the queues. A request descriptor riding
// on the waiter overrides the view's class and attaches its stream tag
// and deadline to the queued command.
//
// A telemetry span riding on the descriptor sees the whole parked
// window as its scheduler-queue stage; after completion, the service
// part (dispatch to end, known from the request's recorded dispatch
// time) is transferred to the die stage, splitting queue wait from die
// service exactly.
func (v view) submit(w sim.Waiter, r *request, die int) bool {
	rq := ioreq.From(w)
	pw, ok := rq.W.(sim.ProcWaiter)
	if !ok || pw.P.Kernel() != v.s.k {
		v.s.stats.Bypassed++
		return false
	}
	r.class = v.c
	if c, declared := FromRequest(rq.Class); declared {
		if c != v.c {
			v.s.stats.Retagged++
		}
		r.class = c
	}
	r.tag, r.deadline = rq.Tag, rq.Deadline
	r.arrival = pw.P.Now()
	sp := rq.Span
	if sp != nil {
		sp.Cmds++
		sp.Enter(ioreq.StageSchedQ, r.arrival)
		r.span = sp.ID
	}
	v.s.dies[die].enqueue(r)
	r.done.Wait(pw.P)
	if sp != nil {
		end := pw.P.Now()
		sp.Exit(end)
		sp.Transfer(ioreq.StageSchedQ, ioreq.StageDie, end-r.start)
	}
	return true
}

// ReadPage implements flash.Dev.
func (v view) ReadPage(w sim.Waiter, p nand.PPN, buf []byte) (nand.OOB, error) {
	if !v.s.geo.ValidPPN(p) {
		return v.s.dev.ReadPage(w, p, buf)
	}
	r := &request{op: opRead, ppn: p, buf: buf}
	if !v.submit(w, r, v.s.geo.DieOf(p)) {
		return v.s.dev.ReadPage(w, p, buf)
	}
	return r.oobOut, r.err
}

// ProgramPage implements flash.Dev.
func (v view) ProgramPage(w sim.Waiter, p nand.PPN, data []byte, oob nand.OOB) error {
	if !v.s.geo.ValidPPN(p) {
		return v.s.dev.ProgramPage(w, p, data, oob)
	}
	r := &request{op: opProgram, ppn: p, data: data, oob: oob}
	if !v.submit(w, r, v.s.geo.DieOf(p)) {
		return v.s.dev.ProgramPage(w, p, data, oob)
	}
	return r.err
}

// ProgramPartial implements flash.Dev.
func (v view) ProgramPartial(w sim.Waiter, p nand.PPN, off int, data []byte, oob nand.OOB) error {
	if !v.s.geo.ValidPPN(p) {
		return v.s.dev.ProgramPartial(w, p, off, data, oob)
	}
	r := &request{op: opPartial, ppn: p, off: off, data: data, oob: oob}
	if !v.submit(w, r, v.s.geo.DieOf(p)) {
		return v.s.dev.ProgramPartial(w, p, off, data, oob)
	}
	return r.err
}

// EraseBlock implements flash.Dev.
func (v view) EraseBlock(w sim.Waiter, b nand.PBN) error {
	if !v.s.geo.ValidPBN(b) {
		return v.s.dev.EraseBlock(w, b)
	}
	r := &request{op: opErase, pbn: b}
	if !v.submit(w, r, v.s.geo.DieOfBlock(b)) {
		return v.s.dev.EraseBlock(w, b)
	}
	return r.err
}

// Copyback implements flash.Dev.
func (v view) Copyback(w sim.Waiter, src, dst nand.PPN, newOOB *nand.OOB) error {
	if !v.s.geo.ValidPPN(src) || !v.s.geo.ValidPPN(dst) {
		return v.s.dev.Copyback(w, src, dst, newOOB)
	}
	r := &request{op: opCopyback, ppn: src, dst: dst, oobPtr: newOOB}
	if !v.submit(w, r, v.s.geo.DieOf(src)) {
		return v.s.dev.Copyback(w, src, dst, newOOB)
	}
	return r.err
}

var _ flash.Dev = view{}
