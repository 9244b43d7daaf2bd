// Package user stands on the facade from outside.
package user

import (
	"noftl/internal/analysis/testdata/src/facade"
	"noftl/internal/analysis/testdata/src/facade/internal/impl"
)

// Use selects the facade names it needs.
func Use() int {
	var w *facade.Widget = facade.New(facade.Defaults())
	var t facade.Trailing
	return w.N + t.N + facade.Small + facade.Large + facade.Undocumented() + impl.Total(w)
}
