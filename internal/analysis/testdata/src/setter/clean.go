// Nothing in this file may produce a diagnostic.
package setter

// Options' exported fields are all set by caller/.
type Options struct {
	Keyed    int
	Assigned int
	Shadow   int
	internal int
}

// Stats is no configuration struct by name: its fields are no settings.
type Stats struct{ Count int }

// ScaleConfig keeps a field no caller sets, excused at its declaration.
type ScaleConfig struct {
	//noftl:ignore setter fixture: workload or run scale, tests shrink it
	Rows int
}
