package setter

// A test-only setter is no caller.
func testConfig() RunConfig { return RunConfig{TestOnly: 1} }
