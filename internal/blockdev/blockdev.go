// Package blockdev wraps an on-device FTL behind the legacy block-device
// interface: READ(lba)/WRITE(lba) only. This is the "conventional
// storage" path of the paper (Figure 1.a/1.b): the DBMS cannot see the
// flash geometry, cannot steer placement, and — crucially — has no way to
// tell the device that a page's contents are dead, so the FTL's garbage
// collector must treat stale database pages as live data.
//
// The wrapper also models the legacy I/O stack costs NoFTL removes: a
// fixed per-command protocol overhead and a bounded command queue
// (SATA2-class NCQ, 32 outstanding commands).
package blockdev

import (
	"noftl/internal/ftl"
	"noftl/internal/sim"
)

// Config tunes the legacy interface model.
type Config struct {
	// Kernel enables queue-depth arbitration for DES runs.
	Kernel *sim.Kernel
}

// cmdOverhead is the per-command protocol/driver cost added on top of
// device latency (SATA/AHCI class). queueDepth bounds outstanding
// commands (SATA2 NCQ); it is only enforced for DES callers
// (sim.ProcWaiter), since serial callers cannot exceed depth 1 anyway.
const (
	cmdOverhead = 10 * sim.Microsecond
	queueDepth  = 32
)

// Device is a logical block device backed by an FTL.
type Device struct {
	ftl   ftl.FTL
	queue *sim.Resource
}

// New wraps f behind the legacy interface.
func New(f ftl.FTL, cfg Config) *Device {
	d := &Device{ftl: f}
	if cfg.Kernel != nil {
		d.queue = sim.NewResource(cfg.Kernel, queueDepth)
	}
	return d
}

// Pages returns the number of addressable logical pages.
func (d *Device) Pages() int64 { return d.ftl.LogicalPages() }

// Read reads logical page lba.
func (d *Device) Read(w sim.Waiter, lba int64, buf []byte) error {
	release := d.enter(w)
	defer release()
	w.WaitUntil(w.Now() + cmdOverhead)
	return d.ftl.Read(w, lba, buf)
}

// Write writes logical page lba. There is no way to express "this page
// is dead" through this interface; that asymmetry versus noftl.Volume is
// the architectural difference under test.
func (d *Device) Write(w sim.Waiter, lba int64, data []byte) error {
	release := d.enter(w)
	defer release()
	w.WaitUntil(w.Now() + cmdOverhead)
	return d.ftl.Write(w, lba, data)
}

// enter acquires a queue slot for DES callers and returns the release
// function.
func (d *Device) enter(w sim.Waiter) func() {
	if d.queue == nil {
		return func() {}
	}
	pw, ok := w.(sim.ProcWaiter)
	if !ok {
		return func() {}
	}
	d.queue.Acquire(pw.P)
	return d.queue.Release
}
