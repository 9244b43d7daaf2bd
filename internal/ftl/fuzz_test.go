package ftl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// The sequential log's restart scan reads whatever the region's blocks
// hold. The seed corpus lives under testdata/fuzz and runs with every
// `go test`; explore with
//
//	go test ./internal/ftl -run '^$' -fuzz FuzzSeqLogRebuild -fuzztime 60s -fuzzminimizetime 5x

// FuzzSeqLogRebuild programs arbitrary extents on a 2-die device and runs
// RebuildSeqLog over them. Each input group appends pages to one block
// from its next unprogrammed page:
//
//	die/block byte (bit 0 die, the rest the die-local block), page count
//	byte, OOB flags byte, position byte (bit 7 set: an 8-byte little-endian
//	position follows; clear: the value times pages per block, an extent
//	boundary), seq byte.
//
// Page i of a group carries position+i and seq+i, as a log append would.
// RebuildSeqLog may refuse an image but must not panic; a log it returns
// keeps head <= next with every retained position inside an extent, and
// an Append then reads back at the position it returned.
func FuzzSeqLogRebuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		dev := flash.New(flash.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 2,
				BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 64, OOBSize: 16,
			},
			Cell: nand.SLC,
			Nand: nand.Options{StoreData: true},
		})
		geo := dev.Geometry()
		w := ioreq.Plain(&sim.ClockWaiter{})
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			c := in[0]
			in = in[1:]
			return c
		}
		for len(in) > 0 {
			b := next()
			sp := NewDieSpace(dev, int(b&1))
			pbn := sp.PBN(int(b>>1) % sp.Blocks())
			n, flags := 1+int(next())%geo.PagesPerBlock, uint32(next())
			pos := uint64(next())
			if pos&0x80 != 0 {
				var le [8]byte
				for i := range le {
					le[i] = next()
				}
				pos = binary.LittleEndian.Uint64(le[:])
			} else {
				pos *= uint64(geo.PagesPerBlock)
			}
			seq := uint64(next())
			for i := uint64(0); i < uint64(n); i++ {
				page := dev.Array().NextProgramPage(pbn)
				if page >= geo.PagesPerBlock {
					break
				}
				data := make([]byte, geo.PageSize)
				binary.LittleEndian.PutUint64(data, pos+i)
				_ = dev.ProgramPage(w.W, geo.FirstPage(pbn)+nand.PPN(page), data,
					nand.OOB{LPN: pos + i, Seq: seq + i, Flags: flags})
			}
		}

		l, err := RebuildSeqLog(dev, SeqLogConfig{}, w)
		if err != nil {
			return
		}
		head, tail := l.Bounds()
		if head > tail || l.LivePages() != tail-head {
			t.Fatalf("rebuilt window [%d,%d) with %d live pages", head, tail, l.LivePages())
		}
		if ext := int64(len(l.exts)) * int64(l.ppb()); tail-head > ext {
			t.Fatalf("window [%d,%d) is wider than its %d extents", head, tail, len(l.exts))
		}
		data := bytes.Repeat([]byte{0xA5}, l.PageSize())
		pos, err := l.Append(w, data)
		if err != nil {
			return // a full region refuses appends until the host truncates
		}
		got := make([]byte, l.PageSize())
		if err := l.ReadAt(w, pos, got); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("append at %d read back %x, %v", pos, got[:8], err)
		}
	})
}
