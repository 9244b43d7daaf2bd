package ftl

// DFTLConfig tunes the demand-based FTL (noftl.NewDFTL): the
// page-mapping FTL with a mapping table that does not fit in device RAM.
// Like PageFTLConfig it is built in package noftl, on the same die
// manager; only its configuration lives with the other FTLs'. Its
// over-provisioning is PageFTLConfig's default.
type DFTLConfig struct {
	// CMTEntries is the total cached-mapping-table capacity in entries
	// across the device (the scarce on-device RAM DFTL works around).
	// Default: 1/32 of the logical pages.
	CMTEntries int
}
