// Package caller sets the configuration fields of its parent the two
// ways that count: a keyed literal element and an assignment.
package caller

import "noftl/internal/analysis/testdata/src/setter"

// Build sets every exported field of setter.Options.
func Build() setter.Options {
	o := setter.Options{Keyed: 1, Shadow: 2}
	o.Assigned = 3
	return o
}
