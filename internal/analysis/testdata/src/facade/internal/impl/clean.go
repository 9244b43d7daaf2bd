// Nothing in this file may produce a diagnostic.
package impl

import "fmt"

// Sizer is what Total adds up.
type Sizer interface{ Size() int }

// Size implements Sizer: user/ calls it only through the interface.
func (w *Widget) Size() int { return w.N }

// String implements fmt.Stringer, a standard interface: fmt calls it.
func (w *Widget) String() string { return fmt.Sprint(w.N) }

// Total adds up the sizes.
func Total(ss ...Sizer) int {
	n := 0
	for _, s := range ss {
		n += s.Size()
	}
	return n
}
