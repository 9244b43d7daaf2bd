// Every construct flagged here starts a second thread of control or
// takes a lock; expect.txt lists them. clean.go holds what passes.
package onethread

import (
	"sync"
	"sync/atomic"
)

var (
	mu    sync.Mutex
	count atomic.Int64
)

// Spawn starts a goroutine.
func Spawn(f func()) {
	go f()
}

// Nested starts one inside a function literal.
func Nested() func() {
	return func() { go Spawn(nil) }
}
