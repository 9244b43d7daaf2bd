// Nothing in this file may produce a diagnostic.
package timedretry

// Once sleeps outside any loop.
func Once(p *Proc) { p.Sleep(10) }

// Deadlines waits for absolute times: no retry from now.
func Deadlines(p *Proc, ts []int64) {
	for _, t := range ts {
		p.WaitUntil(t)
	}
}

// Deferred builds function literals in a loop; each starts afresh.
func Deferred(p *Proc, n int) []func() {
	var fs []func()
	for i := 0; i < n; i++ {
		fs = append(fs, func() { p.Sleep(1) })
	}
	return fs
}

// Ticker's period is its job, excused at its Sleep.
func Ticker(p *Proc, stopped func() bool) {
	for !stopped() {
		//noftl:ignore timedretry fixture: a process whose period is the point
		p.Sleep(100)
	}
}
