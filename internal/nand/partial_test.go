package nand

import (
	"bytes"
	"errors"
	"testing"
)

func partialTestArray(t *testing.T) *Array {
	t.Helper()
	geo := Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 256, OOBSize: 16,
	}
	return NewArray(geo, SLC, Options{StoreData: true})
}

func TestProgramPartialAppendsAndMerges(t *testing.T) {
	a := partialTestArray(t)
	p := PPN(0)
	if err := a.ProgramPartial(p, 0, []byte{1, 2, 3}, OOB{LPN: 7, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramPartial(p, 3, []byte{4, 5}, OOB{LPN: 9, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	// A gap between appends is allowed (only overwrites are not).
	if err := a.ProgramPartial(p, 10, []byte{6}, OOB{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	oob, err := a.ReadPage(p, buf)
	if err != nil {
		t.Fatal(err)
	}
	if oob.LPN != 7 || oob.Seq != 1 {
		t.Fatalf("oob = %+v, want first program's oob", oob)
	}
	want := make([]byte, 256)
	copy(want, []byte{1, 2, 3, 4, 5})
	want[10] = 6
	if !bytes.Equal(buf, want) {
		t.Fatalf("merged page = %v...", buf[:12])
	}
	if got := a.blocks[0].partials[0]; got != 3 {
		t.Fatalf("partials = %d, want 3", got)
	}
	if got := a.blocks[0].high[0]; got != 11 {
		t.Fatalf("high water = %d, want 11", got)
	}
}

func TestProgramPartialNOPBudget(t *testing.T) {
	a := partialTestArray(t)
	p := PPN(0)
	if a.MaxPartialPrograms() != 4 {
		t.Fatalf("NOP = %d, want 4", a.MaxPartialPrograms())
	}
	for i := range 4 {
		if err := a.ProgramPartial(p, i, []byte{byte(i)}, OOB{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ProgramPartial(p, 4, []byte{4}, OOB{}); !errors.Is(err, ErrPartialNOP) {
		t.Fatalf("over-budget partial: %v", err)
	}
}

func TestProgramPartialRejectsOverwrite(t *testing.T) {
	a := partialTestArray(t)
	p := PPN(0)
	if err := a.ProgramPartial(p, 0, []byte{1, 2, 3, 4}, OOB{}); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramPartial(p, 2, []byte{9}, OOB{}); !errors.Is(err, ErrPartialOrder) {
		t.Fatalf("overwrite partial: %v", err)
	}
}

func TestProgramPartialInOrderFirstProgram(t *testing.T) {
	a := partialTestArray(t)
	// Page 1 before page 0 violates in-order programming.
	if err := a.ProgramPartial(PPN(1), 0, []byte{1}, OOB{}); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("out-of-order first partial: %v", err)
	}
	// But appending to an already-open earlier page after later pages
	// were programmed is the NOP use case and must work.
	if err := a.ProgramPartial(PPN(0), 0, []byte{1}, OOB{}); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramPage(PPN(1), make([]byte, 256), OOB{}); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramPartial(PPN(0), 1, []byte{2}, OOB{}); err != nil {
		t.Fatalf("append to open page after later program: %v", err)
	}
}

func TestFullProgramClosesPage(t *testing.T) {
	a := partialTestArray(t)
	if err := a.ProgramPage(PPN(0), make([]byte, 256), OOB{}); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramPartial(PPN(0), 0, []byte{1}, OOB{}); err == nil {
		t.Fatal("partial program into fully programmed page succeeded")
	}
}

func TestEraseResetsPartialState(t *testing.T) {
	a := partialTestArray(t)
	p := PPN(0)
	for i := range 4 {
		_ = a.ProgramPartial(p, i, []byte{byte(i)}, OOB{})
	}
	if err := a.EraseBlock(PBN(0)); err != nil {
		t.Fatal(err)
	}
	if a.blocks[0].partials[0] != 0 || a.blocks[0].high[0] != 0 {
		t.Fatal("erase did not reset partial state")
	}
	if err := a.ProgramPartial(p, 0, []byte{3}, OOB{}); err != nil {
		t.Fatalf("partial after erase: %v", err)
	}
}

func TestProgramBytesCounter(t *testing.T) {
	a := partialTestArray(t)
	_ = a.ProgramPartial(PPN(0), 0, make([]byte, 10), OOB{})
	_ = a.ProgramPage(PPN(1), make([]byte, 256), OOB{})
	c := a.Counters()
	if c.PartialPrograms != 1 || c.Programs != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.ProgramBytes != 10+256 {
		t.Fatalf("program bytes = %d, want 266", c.ProgramBytes)
	}
}
