package impl

// Tests are no users of the internal tree.
func touch() int {
	w := &Widget{N: 1}
	w.Reset()
	return Probe() + len(Gauge{}.Size())
}
