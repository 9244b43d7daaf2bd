package ftl

// PageFTLConfig tunes the pure page-mapping FTL (noftl.NewPageFTL): the
// complete logical-to-physical table held in RAM, the scheme DFTL
// approximates with a cache and NoFTL runs host-side. It is the NoFTL
// die manager with the DBMS knowledge switched off, so it is built in
// package noftl; only its configuration lives with the other FTLs'.
type PageFTLConfig struct {
	// OverProvision is the fraction of usable capacity hidden from the
	// host for GC headroom. Default 0.10.
	OverProvision float64
	// Policy selects GC victims. Default GreedyPolicy.
	Policy GCPolicy
}
