package ftl

// DFTLConfig tunes the demand-based FTL (noftl.NewDFTL): the
// page-mapping FTL with a mapping table that does not fit in device RAM.
// Like PageFTLConfig it is built in package noftl, on the same die
// manager; only its configuration lives with the other FTLs'.
type DFTLConfig struct {
	// OverProvision is the hidden capacity fraction. Default 0.10.
	OverProvision float64
	// CMTEntries is the total cached-mapping-table capacity in entries
	// across the device (the scarce on-device RAM DFTL works around).
	// Default: 1/32 of the logical pages.
	CMTEntries int
}
