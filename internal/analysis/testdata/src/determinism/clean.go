// Nothing in this file may produce a diagnostic: these are the
// sanctioned forms of the patterns flagged.go gets caught on.
package determinism

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// SeededDraw owns its random stream, so replays reproduce it.
func SeededDraw(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// DumpSorted collects the keys, sorts them, then writes: the collection
// append is legal because the same function sorts the slice.
func DumpSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// Sum folds a map without producing ordered output; iteration order
// cannot be observed.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Report's fields are filled from maps and sorted afterwards.
type Report struct {
	Cells []int
	Spans map[int]*SpanShares
}

// SpanShares is one span's sorted shares.
type SpanShares struct{ Shares []int }

// Fill collects into fields and sorts each field afterwards, at the
// report level and per entry.
func (r *Report) Fill(cells map[string]int, shares map[int]map[int]int) {
	for _, c := range cells {
		r.Cells = append(r.Cells, c)
	}
	sort.Ints(r.Cells)
	for id, sb := range r.Spans {
		for _, w := range shares[id] {
			sb.Shares = append(sb.Shares, w)
		}
		sort.Ints(sb.Shares)
	}
}
