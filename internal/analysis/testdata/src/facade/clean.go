// Nothing in this file may produce a diagnostic.
package facade

import "noftl/internal/analysis/testdata/src/facade/internal/impl"

// Widget re-exports impl.Widget; user/ selects it.
type Widget = impl.Widget

// Options has no selector outside the package, but New's and
// Defaults' signatures keep it.
type Options = impl.Options

// New builds a widget from o.
func New(o Options) *Widget { return impl.New(o) }

// Defaults returns the options New starts from.
func Defaults() Options { return Options{Size: 1} }

// Gauge's only user is the package's external test, which counts.
type Gauge = impl.Gauge

type Trailing = impl.Widget // Trailing is documented by its line comment.

// The group's doc comment documents each of its names.
const (
	Small = 1
	Large = 2
)

func helper() {}
