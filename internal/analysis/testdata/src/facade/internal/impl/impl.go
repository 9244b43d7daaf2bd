// Package impl stands in for the internal packages a facade re-exports.
package impl

// Widget is a re-exported type.
type Widget struct{ N int }

// Options configures New.
type Options struct{ Size int }

// Gauge is a re-exported type.
type Gauge struct{}

// New builds a widget.
func New(o Options) *Widget { return &Widget{N: o.Size} }
