// Nothing in this file may produce a diagnostic: work runs on the
// caller's thread of control.
package onethread

import "strings"

// Call runs f on the caller's stack.
func Call(f func()) { f() }

// Upper imports a package whose name merely starts like sync's.
func Upper(s string) string { return strings.ToUpper(s) }
