// Names flagged here lack a doc comment or a user outside the package;
// expect.txt lists them. clean.go holds the sanctioned forms.
package facade

import "noftl/internal/analysis/testdata/src/facade/internal/impl"

func Undocumented() int { return 0 }

// Unused is documented, but nothing outside the package selects it.
type Unused = impl.Widget

var Bare = 1
