// Every wait flagged here re-tests a condition on a tick instead of
// parking until its releaser wakes it; expect.txt lists them. clean.go
// holds what passes.
package timedretry

// Proc stands in for sim.Proc: the rule matches the method names.
type Proc struct{ now int64 }

// Now returns the simulated time.
func (p *Proc) Now() int64 { return p.now }

// Sleep advances the simulated time by d.
func (p *Proc) Sleep(d int64) { p.now += d }

// WaitUntil advances the simulated time to t.
func (p *Proc) WaitUntil(t int64) { p.now = t }

// Poll sleeps between tests of ready.
func Poll(p *Proc, ready func() bool) {
	for !ready() {
		p.Sleep(10)
	}
}

// PollFromNow waits a fixed time from now on each pass of a range loop.
func PollFromNow(p *Proc, tries []int) {
	for range tries {
		p.WaitUntil(p.Now() + 5)
	}
}

// Spawned polls inside a function literal's own loop.
func Spawned(p *Proc, ready func() bool) func() {
	return func() {
		for !ready() {
			p.Sleep(1)
		}
	}
}
