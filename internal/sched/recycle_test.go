package sched

import (
	"fmt"
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// TestRecycledRequestsKeepTheirIdentity is the evidence for recycling
// request descriptors: a submitter hands its descriptor back the moment it
// wakes and the next submitter overwrites it at once (the free list is
// LIFO), so a dispatcher that touched r after firing r.done would report
// some other command's op, tag or block — in the trace event, or to the
// submitter as its result. Six workers share two dies under Priority, so
// commands queue behind each other, erases are suspended for reads (serve
// nested inside serveErase), and descriptors change hands constantly.
func TestRecycledRequestsKeepTheirIdentity(t *testing.T) {
	const workers, rounds = 6, 5
	dev := testDev(2)
	geo := dev.Geometry()
	k := sim.New()
	var events []Event
	s := New(k, dev, Config{Policy: Priority, Trace: func(e Event) { events = append(events, e) }})
	rd, prog, gc := s.Bind(ClassRead), s.Bind(ClassProgram), s.Bind(ClassGC)

	blockOf := func(id int) nand.PBN { return nand.PBN(id) * 3 % nand.PBN(geo.TotalBlocks()) }
	for id := 1; id <= workers; id++ {
		k.Go(fmt.Sprintf("worker%d", id), func(p *sim.Proc) {
			w := &ioreq.Req{W: sim.ProcWaiter{P: p}, Class: ioreq.ClassDefault, Tag: uint32(id)} // the views decide the class
			first := geo.FirstPage(blockOf(id))
			data, buf := make([]byte, geo.PageSize), make([]byte, geo.PageSize)
			for round := 0; round < rounds; round++ {
				for i := 0; i < geo.PagesPerBlock; i++ {
					data[0] = byte(id*16 + i)
					lpn := uint64(id*1000 + round*10 + i)
					if err := prog.ProgramPage(w, first+nand.PPN(i), data, nand.OOB{LPN: lpn}); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 0; i < geo.PagesPerBlock; i++ {
					oob, err := rd.ReadPage(w, first+nand.PPN(i), buf)
					if err != nil || oob.LPN != uint64(id*1000+round*10+i) || buf[0] != byte(id*16+i) {
						t.Errorf("worker %d round %d page %d read back oob %+v data %#x err %v", id, round, i, oob, buf[0], err)
						return
					}
				}
				if err := gc.EraseBlock(w, blockOf(id)); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	k.Run()
	k.Shutdown()

	perRound := 2*geo.PagesPerBlock + 1
	next := make([]int, workers+1) // commands traced so far, per worker
	for _, e := range events {
		id := int(e.Tag)
		if id < 1 || id > workers {
			t.Fatalf("event with tag %d: %+v", e.Tag, e)
		}
		op, class, block := "program", ClassProgram, int64(blockOf(id))
		switch i := next[id] % perRound; {
		case i == perRound-1:
			op, class = "erase", ClassGC
		case i >= geo.PagesPerBlock:
			op, class, block = "read", ClassRead, -1
		}
		next[id]++
		if e.Op != op || e.Class != class || e.Block != block || e.Die != geo.DieOfBlock(blockOf(id)) ||
			e.Arrival > e.Start || e.Start > e.End {
			t.Fatalf("worker %d command %d traced as %+v, want %s/%v on block %d", id, next[id]-1, e, op, class, block)
		}
	}
	for id := 1; id <= workers; id++ {
		if next[id] != rounds*perRound {
			t.Errorf("worker %d: %d commands traced, want %d", id, next[id], rounds*perRound)
		}
	}
	if s.Stats().EraseSuspends == 0 {
		t.Error("no erase was suspended: the serve-inside-serveErase path went untested")
	}
	// One descriptor per submitter that was ever parked at once, all idle.
	if n := len(s.free); n == 0 || n > workers {
		t.Errorf("%d descriptors on the free list after %d commands by %d workers", n, len(events), workers)
	}
	for _, r := range s.free {
		if r.data != nil || r.buf != nil || r.err != nil {
			t.Fatalf("idle descriptor still holds a caller's buffers: %+v", r)
		}
	}
}
