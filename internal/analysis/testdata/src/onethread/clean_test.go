package onethread

import "sync"

// Tests may drive the module from several goroutines: only non-test
// files are checked.
func race(f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); f() }()
	wg.Wait()
}
