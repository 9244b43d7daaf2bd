// Every declaration in this file must produce a diagnostic (see
// expect.txt); clean.go holds the sanctioned counterparts.
package determinism

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"noftl/internal/stats"
)

// WallClock reads real time twice; both reads leak the wall clock.
func WallClock() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// GlobalDraw draws from the unseeded process-global source.
func GlobalDraw() int { return rand.Intn(10) }

// DumpUnsorted writes rows straight out of map order.
func DumpUnsorted(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// TableUnsorted emits stats table rows in map order.
func TableUnsorted(t *stats.Table, m map[string]int) {
	for k, v := range m {
		t.Row(k, v)
	}
}

// CollectUnsorted lets map-ordered keys escape without a sort.
func CollectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// started reads the wall clock in a package-level initializer.
var started = time.Now()

type deltaPage struct{ residents []int64 }

// AttachUnsorted appends to a field of a loop-local pointer into outer
// state, in map order: the pages keep their residents in that order.
func AttachUnsorted(pages map[int]*deltaPage, owner map[int64]int) {
	for lpn, p := range owner {
		pi := pages[p]
		pi.residents = append(pi.residents, lpn)
	}
}
