package bench

import (
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/noftl"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/trace"
	"noftl/internal/workload"
)

// Ablation sweeps isolate the design choices DESIGN.md calls out:
// GC victim policy (A1), DFTL CMT size (A2), FASTer log-area fraction
// (A3) and over-provisioning (A4).

// AblationPoint is one sweep measurement.
type AblationPoint struct {
	Param     string
	Value     float64
	Copybacks int64
	GCWrites  int64
	Erases    int64
	WA        float64
	Elapsed   sim.Time
	MapIO     int64
}

// AblationResult is a parameter sweep.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// Table renders the sweep.
func (r *AblationResult) Table() string {
	t := stats.NewTable("param", "value", "copybacks", "gcWrites", "erases", "WA", "mapIO", "elapsed")
	for _, p := range r.Points {
		t.Row(p.Param, p.Value, p.Copybacks, p.GCWrites, p.Erases, p.WA, p.MapIO,
			p.Elapsed.String())
	}
	return t.String()
}

// tpcbTrace records a small TPC-B trace for the sweeps.
func tpcbTrace(txs int, seed int64) (*trace.Trace, error) {
	tr, _, err := recordTrace(workload.NewTPCB(workload.TPCBConfig{Branches: 8}), txs, seed)
	return tr, err
}

// measured fills p's counters from an FTL's stats and the run's clock.
func measured(p AblationPoint, s ftl.Stats, elapsed sim.Time) AblationPoint {
	p.Copybacks, p.GCWrites, p.Erases = s.GCCopybacks, s.GCWrites, s.Erases
	p.WA, p.MapIO, p.Elapsed = s.WriteAmplification(), s.MapReads+s.MapWrites, elapsed
	return p
}

// overwritePoint (A1, A4) fills a page-mapping FTL built with cfg, then
// overwrites twice its capacity with pat (RandWrite, or HotWrite for 80 %
// of them on the first tenth of the space) and records the point.
func overwritePoint(cfg ftl.PageFTLConfig, seed int64, pat trace.Pattern, p AblationPoint) (AblationPoint, error) {
	f, err := noftl.NewPageFTL(flash.New(fig3Device(1<<15, 4096)), cfg)
	if err != nil {
		return p, err
	}
	n := f.LogicalPages()
	tr := trace.Synthetic(trace.SeqWrite, int(n), n, 4096, seed)
	tr.Ops = append(tr.Ops, trace.Synthetic(pat, int(n)*2, n, 4096, seed).Ops...)
	return replayPoint(tr, f, p)
}

// replayPoint (A1-A4) replays tr on f, trims dropped, and records the
// point.
func replayPoint(tr *trace.Trace, f ftl.FTL, p AblationPoint) (AblationPoint, error) {
	res, err := trace.Replay(tr, f, &sim.ClockWaiter{}, trace.ReplayOptions{DropTrims: true})
	if err != nil {
		return p, err
	}
	return measured(p, f.Stats(), res.Elapsed), nil
}

// AblationGCPolicy (A1) compares victim-selection policies on the
// page-mapping FTL under a skewed synthetic update load.
func AblationGCPolicy(seed int64) (*AblationResult, error) {
	res := &AblationResult{Name: "gc-policy"}
	for _, pol := range []ftl.GCPolicy{ftl.GreedyPolicy, ftl.CostBenefitPolicy, ftl.WearAwarePolicy} {
		pt, err := overwritePoint(ftl.PageFTLConfig{Policy: pol, OverProvision: 0.12}, seed, trace.HotWrite,
			AblationPoint{Param: pol.String()})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// AblationDFTLCMT (A2) sweeps the cached-mapping-table size, showing the
// translation-I/O overhead that produces the paper's "up to 3.7x"
// slowdown when the cache thrashes.
func AblationDFTLCMT(seed int64) (*AblationResult, error) {
	tr, err := tpcbTrace(2500, seed)
	if err != nil {
		return nil, err
	}
	span := tr.Span()
	res := &AblationResult{Name: "dftl-cmt"}
	for _, entries := range []int{64, 256, 1024, 4096, 1 << 20} {
		dev := flash.New(fig3Device(span*10/7, tr.PageSize))
		f, err := noftl.NewDFTL(dev, ftl.DFTLConfig{CMTEntries: entries})
		if err != nil {
			return nil, err
		}
		pt, err := replayPoint(tr, f, AblationPoint{Param: "cmt", Value: float64(entries)})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// AblationFasterLog (A3) sweeps FASTer's log-area fraction.
func AblationFasterLog(seed int64) (*AblationResult, error) {
	tr, err := tpcbTrace(2500, seed)
	if err != nil {
		return nil, err
	}
	span := tr.Span()
	res := &AblationResult{Name: "faster-log"}
	for _, frac := range []float64{0.03, 0.07, 0.15, 0.25} {
		dev := flash.New(fig3Device(span*10/6, tr.PageSize))
		f, err := ftl.NewFasterFTL(dev, ftl.FasterConfig{LogFraction: frac, SecondChance: true})
		if err != nil {
			return nil, err
		}
		if f.LogicalPages() <= span {
			continue // log ate too much of the small sweep drive
		}
		pt, err := replayPoint(tr, f, AblationPoint{Param: "logFrac", Value: frac})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// AblationOverProvision (A4) sweeps over-provisioning on the
// page-mapping scheme under uniform random writes.
func AblationOverProvision(seed int64) (*AblationResult, error) {
	res := &AblationResult{Name: "over-provisioning"}
	for _, op := range []float64{0.07, 0.12, 0.20, 0.28} {
		pt, err := overwritePoint(ftl.PageFTLConfig{OverProvision: op}, seed, trace.RandWrite,
			AblationPoint{Param: "op", Value: op})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
