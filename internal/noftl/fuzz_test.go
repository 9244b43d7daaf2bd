package noftl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"noftl/internal/delta"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// The volume parses delta records back from flash on every folded read
// and in Rebuild. Each target's seed corpus lives under testdata/fuzz and
// runs with every `go test`; explore with
//
//	go test ./internal/noftl -run '^$' -fuzz FuzzDeltaRecord -fuzztime 60s -fuzzminimizetime 5x

// FuzzDeltaRecord: parsing arbitrary bytes never panics or reads past
// them, and every record encodes and parses back to itself.
func FuzzDeltaRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := data[:len(data):len(data)] // a read past the input panics
		if _, _, payload, n, err := parseDeltaRecord(in); err == nil &&
			(n > len(in) || n != deltaHeaderSize+len(payload)) {
			t.Fatalf("parsed a %d-byte record (payload %d) from %d bytes", n, len(payload), len(in))
		}

		var hdr [16]byte
		copy(hdr[:], data)
		lpn, seq := int64(binary.LittleEndian.Uint64(hdr[:])), binary.LittleEndian.Uint64(hdr[8:])
		payload := data[min(len(data), len(hdr)):]
		payload = payload[:min(len(payload), 0xFFFF)] // the header carries a u16 length
		rec := encodeDeltaRecord(lpn, seq, payload)
		gotLPN, gotSeq, gotPayload, n, err := parseDeltaRecord(append(rec, 0xFF)) // trailing bytes belong to the next record
		if err != nil || gotLPN != lpn || gotSeq != seq || !bytes.Equal(gotPayload, payload) || n != len(rec) {
			t.Fatalf("round trip: lpn %d→%d, seq %d→%d, payload %x→%x, n %d of %d, err %v",
				lpn, gotLPN, seq, gotSeq, payload, gotPayload, n, len(rec), err)
		}
		if _, _, _, _, err := parseDeltaRecord(rec[:len(rec)-1]); err == nil {
			t.Fatal("a truncated record parsed")
		}
	})
}

// fuzzDevice is a 2-die, 2-plane device small enough to scan in
// microseconds and large enough to export capacity (80 pages per die).
func fuzzDevice() *flash.Device {
	return flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 2,
			BlocksPerPlane: 12, PagesPerBlock: 8, PageSize: 256, OOBSize: 16,
		},
		Cell: nand.SLC,
		Nand: nand.Options{StoreData: true},
	})
}

// fuzzBytes hands out the fuzzer's input a byte at a time, zeros once
// it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// programImage decodes in into programs on dev, each group appending to
// one block from its next unprogrammed page:
//
//	die/block byte (bit 0 die, the rest the die-local block), page count
//	byte, then per page: OOB flags, LPN and seq bytes (LPN 0xff is the
//	all-ones filler LPN), and for a delta-flagged page either raw bytes
//	(flags bit 7: length byte, then that many page bytes) or up to three
//	records of {LPN, seq, run offset, run length} bytes.
func programImage(dev *flash.Device, in fuzzBytes) {
	geo := dev.Geometry()
	w := &sim.ClockWaiter{}
	for len(in) > 0 {
		b := in.next()
		sp := ftl.NewDieSpace(dev, int(b&1))
		pbn := sp.PBN(int(b>>1) % sp.Blocks())
		for n := 1 + int(in.next())%geo.PagesPerBlock; n > 0; n-- {
			flags, lpn, seq := in.next(), uint64(in.next()), uint64(in.next())
			if lpn == 0xff {
				lpn = ^uint64(0)
			}
			data := make([]byte, geo.PageSize)
			switch {
			case uint32(flags)&oobDeltaFlag == 0:
				binary.LittleEndian.PutUint64(data, lpn)
			case flags&0x80 != 0:
				for i := range int(in.next()) {
					data[i] = in.next()
				}
			default:
				off := 0
				for r := in.next() % 4; r > 0; r-- {
					rl, rs := int64(in.next()), uint64(in.next())
					run := delta.Run{Off: int(in.next()) % (geo.PageSize - 16), Len: 1 + int(in.next())%16}
					off += copy(data[off:], encodeDeltaRecord(rl, rs, delta.Encode([]delta.Run{run}, data)))
				}
			}
			next := dev.Array().NextProgramPage(pbn)
			if next >= geo.PagesPerBlock {
				break
			}
			_ = dev.ProgramPage(w, geo.FirstPage(pbn)+nand.PPN(next), data, nand.OOB{LPN: lpn, Seq: seq, Flags: uint32(flags)})
		}
	}
}

// FuzzVolumeRebuild runs the restart scan over arbitrary flash images:
// full images, delta pages and foreign pages with any LPN, sequence
// number and flags on either die. Rebuild may refuse an image but must
// not panic, and a volume it returns must pass checkRebuilt.
func FuzzVolumeRebuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		dev := fuzzDevice()
		programImage(dev, in)
		v, err := Rebuild(dev, Config{}, ioreq.Plain(&sim.ClockWaiter{}))
		if err != nil {
			return
		}
		checkRebuilt(t, v)
	})
}
