package noftl

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The volume parses delta records back from flash on every folded read
// and in Rebuild. The seed corpus lives under testdata/fuzz and runs
// with every `go test`; explore with
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
