package timedretry

// Tests may poll: only non-test files are checked.
func settle(p *Proc, ready func() bool) {
	for !ready() {
		p.Sleep(1)
	}
}
