// Names flagged here have no non-test user; expect.txt lists them.
// clean.go holds the sanctioned forms.
package impl

// Reset is exported, but only the package's test calls it.
func (w *Widget) Reset() { w.N = 0 }

// Probe is exported, but only the package's test calls it.
func Probe() int { return 0 }

// Size shares Sizer's method name but not its signature, so Gauge
// implements nothing and Size has no user.
func (Gauge) Size() string { return "" }
