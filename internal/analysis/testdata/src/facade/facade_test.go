package facade_test

import "noftl/internal/analysis/testdata/src/facade"

// An external test is a user outside the package.
func gauge() facade.Gauge { return facade.Gauge{} }
