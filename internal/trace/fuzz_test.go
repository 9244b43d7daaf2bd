package trace

import (
	"bytes"
	"testing"
)

// A trace file is untrusted input: cmd/tracereplay decodes whatever it
// is handed, and the header sizes Replay's page buffer. The seed corpus
// lives under testdata/fuzz and runs with every `go test`; explore with
//
//	go test ./internal/trace -run '^$' -fuzz FuzzTraceDecode -fuzztime 60s -fuzzminimizetime 5x

// FuzzTraceDecode: Decode never panics on arbitrary bytes, and any input
// it accepts re-encodes to exactly the bytes it consumed — the 24-byte
// header and one 9-byte record per op.
func FuzzTraceDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		n := 24 + 9*len(tr.Ops)
		if n > len(data) {
			t.Fatalf("decoded %d ops from %d bytes", len(tr.Ops), len(data))
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("Encode(Decode(x)) = %x, want the first %d bytes of x: %x", buf.Bytes(), n, data[:n])
		}
	})
}
