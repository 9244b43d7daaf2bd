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

// AblationGCPolicy (A1) compares victim-selection policies on the
// page-mapping FTL under a skewed synthetic update load.
func AblationGCPolicy(seed int64) (*AblationResult, error) {
	res := &AblationResult{Name: "gc-policy"}
	for _, pol := range []ftl.GCPolicy{ftl.GreedyPolicy, ftl.CostBenefitPolicy, ftl.WearAwarePolicy} {
		dev := flash.New(fig3Device(1<<15, 4096))
		f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{Policy: pol, OverProvision: 0.12})
		if err != nil {
			return nil, err
		}
		w := &sim.ClockWaiter{}
		rng := newRand(seed)
		n := f.LogicalPages()
		buf := make([]byte, 4096)
		for lpn := int64(0); lpn < n; lpn++ {
			if err := f.Write(w, lpn, buf); err != nil {
				return nil, err
			}
		}
		for i := 0; i < int(n)*2; i++ {
			lpn := rng.Int63n(n)
			if rng.Float64() < 0.8 {
				lpn = rng.Int63n(n/10 + 1) // 80/10 skew
			}
			if err := f.Write(w, lpn, buf); err != nil {
				return nil, err
			}
		}
		s := f.Stats()
		res.Points = append(res.Points, AblationPoint{
			Param: pol.String(), Copybacks: s.GCCopybacks, GCWrites: s.GCWrites,
			Erases: s.Erases, WA: s.WriteAmplification(), Elapsed: w.Now(),
		})
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
		w := &sim.ClockWaiter{}
		if err := trace.Replay(tr, f, trace.ReplayOptions{DropTrims: true, Waiter: w}); err != nil {
			return nil, err
		}
		s := f.Stats()
		res.Points = append(res.Points, AblationPoint{
			Param: "cmt", Value: float64(entries),
			Copybacks: s.GCCopybacks, GCWrites: s.GCWrites, Erases: s.Erases,
			WA: s.WriteAmplification(), MapIO: s.MapReads + s.MapWrites, Elapsed: w.Now(),
		})
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
		w := &sim.ClockWaiter{}
		if err := trace.Replay(tr, f, trace.ReplayOptions{DropTrims: true, Waiter: w}); err != nil {
			return nil, err
		}
		s := f.Stats()
		res.Points = append(res.Points, AblationPoint{
			Param: "logFrac", Value: frac,
			Copybacks: s.GCCopybacks, GCWrites: s.GCWrites, Erases: s.Erases,
			WA: s.WriteAmplification(), Elapsed: w.Now(),
		})
	}
	return res, nil
}

// AblationOverProvision (A4) sweeps over-provisioning on the
// page-mapping scheme under uniform random writes.
func AblationOverProvision(seed int64) (*AblationResult, error) {
	res := &AblationResult{Name: "over-provisioning"}
	for _, op := range []float64{0.07, 0.12, 0.20, 0.28} {
		dev := flash.New(fig3Device(1<<15, 4096))
		f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{OverProvision: op})
		if err != nil {
			return nil, err
		}
		w := &sim.ClockWaiter{}
		rng := newRand(seed)
		n := f.LogicalPages()
		buf := make([]byte, 4096)
		for lpn := int64(0); lpn < n; lpn++ {
			if err := f.Write(w, lpn, buf); err != nil {
				return nil, err
			}
		}
		for i := 0; i < int(n)*2; i++ {
			if err := f.Write(w, rng.Int63n(n), buf); err != nil {
				return nil, err
			}
		}
		s := f.Stats()
		res.Points = append(res.Points, AblationPoint{
			Param: "op", Value: op,
			Copybacks: s.GCCopybacks, GCWrites: s.GCWrites, Erases: s.Erases,
			WA: s.WriteAmplification(), Elapsed: w.Now(),
		})
	}
	return res, nil
}
