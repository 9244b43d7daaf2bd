// Configuration fields flagged here have no non-test setter outside
// their declaring file; expect.txt lists them. clean.go holds fields
// that have one (caller/ sets them).
package setter

// RunConfig is a configuration struct by name: its exported fields are
// settings.
type RunConfig struct {
	// Unset is set by nothing.
	Unset int
	// TestOnly is set only by setter_test.go, and tests do not count.
	TestOnly int
	// SelfSet is set only in this file.
	SelfSet int
	// Shadow shares its name with Options.Shadow, which caller/ sets;
	// this one nothing sets.
	Shadow int
}

func defaults() RunConfig { return RunConfig{SelfSet: 1} }

// Params is a configuration struct by its exact name.
type Params struct{ Depth int }
