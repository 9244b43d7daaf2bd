// Command tracereplay records page-level I/O traces of TPC workloads
// and replays them against each flash-management scheme — the paper's
// off-line methodology for Figure 3, exposed as a standalone tool.
//
// Replay builds each target as a full facade system (noftl.NewSystem)
// and drives the trace as a simulated process, so every replayed op
// carries a request descriptor (class, tag, waiter) through the stack
// exactly like live engine traffic.
//
// Usage:
//
//	tracereplay -record tpcb -txs 5000 -o tpcb.trace
//	tracereplay -replay tpcb.trace -target faster
//	tracereplay -replay tpcb.trace -target noftl
//	tracereplay -replay tpcb.trace -target all
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"noftl"
)

// replayTag marks replayed requests in command logs and blame reports.
const replayTag uint32 = 0x52504C59 // "RPLY"

func main() {
	var (
		record = flag.String("record", "", "record a workload trace: tpcb|tpcc|tpce|tpch")
		replay = flag.String("replay", "", "replay a trace file")
		target = flag.String("target", "all", "replay target: pagemap|dftl|faster|noftl|all")
		out    = flag.String("o", "workload.trace", "output trace file")
		txs    = flag.Int("txs", 4000, "transactions to record")
		sf     = flag.Int("sf", 8, "scale factor")
		seed   = flag.Int64("seed", 42, "seed")
	)
	flag.Parse()

	switch {
	case *record != "":
		if err := doRecord(*record, *out, *txs, *sf, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *replay != "":
		if err := doReplay(*replay, *target); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doRecord(name, out string, txs, sf int, seed int64) error {
	var wl noftl.Workload
	switch name {
	case "tpcb":
		wl = noftl.NewTPCB(noftl.TPCBConfig{Branches: sf})
	case "tpcc":
		wl = noftl.NewTPCC(noftl.TPCCConfig{Warehouses: sf})
	case "tpce":
		wl = noftl.NewTPCE(noftl.TPCEConfig{Customers: sf * 50})
	case "tpch":
		wl = noftl.NewTPCH(noftl.TPCHConfig{ScaleFactor: sf})
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
	const pageSize = 4096
	inner := noftl.NewMemEngineVolume(pageSize, 1<<20)
	rec := noftl.NewTraceRecorder(inner)
	logv := noftl.NewMemEngineVolume(pageSize, 1<<16)
	ctx := noftl.NewIOCtx(nil)
	if err := noftl.Format(ctx, rec, logv); err != nil {
		return err
	}
	e, err := noftl.Open(ctx, rec, logv, noftl.EngineConfig{BufferFrames: 1024})
	if err != nil {
		return err
	}
	if err := wl.Load(ctx, e); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < txs; i++ {
		if err := wl.RunOne(ctx, e, rng); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
		if (i+1)%200 == 0 {
			if err := e.Checkpoint(ctx); err != nil {
				return err
			}
		}
	}
	if err := e.Close(ctx); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.T.Encode(f); err != nil {
		return err
	}
	r, w, t := rec.T.Counts()
	fmt.Printf("recorded %s: %d ops (%d reads, %d writes, %d trims) -> %s\n",
		name, len(rec.T.Ops), r, w, t, out)
	return nil
}

func doReplay(path, target string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := noftl.DecodeTrace(f)
	if err != nil {
		return err
	}
	devPages := tr.Span() * 10 / 7
	targets := []string{target}
	if target == "all" {
		targets = []string{"pagemap", "dftl", "faster", "noftl"}
	}
	fmt.Printf("%-8s %10s %10s %10s %10s %8s\n",
		"target", "copybacks", "gcR+W", "erases", "mapIO", "WA")
	for _, t := range targets {
		if err := replayOne(tr, t, devPages); err != nil {
			return fmt.Errorf("%s: %w", t, err)
		}
	}
	return nil
}

// replayStacks maps the tool's target names onto facade stacks.
var replayStacks = map[string]noftl.Stack{
	"pagemap": noftl.StackPagemap,
	"dftl":    noftl.StackDFTL,
	"faster":  noftl.StackFaster,
	"noftl":   noftl.StackNoFTL,
}

func replayOne(tr *noftl.IOTrace, target string, devPages int64) error {
	stack, ok := replayStacks[target]
	if !ok {
		return fmt.Errorf("unknown target %q", target)
	}
	devCfg := replayDevice(devPages, tr.PageSize)
	sys, err := noftl.NewSystem(noftl.SystemConfig{
		Stack:  stack,
		Device: &devCfg,
		Frames: 128,
	})
	if err != nil {
		return err
	}
	// Deallocation hints only exist on the native interface: the block
	// stacks replay with trims dropped (the legacy interface cannot
	// convey them), NoFTL keeps them so dead pages reach the GC.
	opts := noftl.ReplayOptions{DropTrims: stack != noftl.StackNoFTL}
	// Measure the replay, not the engine format that built the system.
	sys.Dev.ResetTime()
	sys.Dev.ResetStats()
	var replayErr error
	sys.K.Go("replay", func(p *noftl.Proc) {
		w := noftl.ProcWaiter{P: p}
		ctx := noftl.NewIOCtx(w).WithTag(replayTag)
		opts.Waiter = w
		replayErr = noftl.ReplayTrace(tr, noftl.NewVolumeReplayTarget(sys.Vol, ctx), opts)
	})
	sys.K.Run()
	if replayErr != nil {
		return replayErr
	}
	s := sys.FTLStats()
	d := sys.Dev.Stats()
	fmt.Printf("%-8s %10d %10d %10d %10d %8.2f\n",
		target, d.Copybacks, s.GCReads+s.GCWrites, d.Erases,
		s.MapReads+s.MapWrites, s.WriteAmplification())
	return nil
}

func replayDevice(pages int64, pageSize int) noftl.DeviceConfig {
	const ppb = 64
	blocks := int(pages/ppb) + 1
	if blocks < 12 {
		blocks = 12
	}
	dies := blocks / 16
	if dies > 8 {
		dies = 8
	}
	if dies < 1 {
		dies = 1
	}
	channels := dies
	if channels > 4 {
		channels = 4
	}
	for dies%channels != 0 {
		channels--
	}
	return noftl.DeviceConfig{
		Geometry: noftl.Geometry{
			Channels: channels, ChipsPerChannel: dies / channels, DiesPerChip: 1,
			PlanesPerDie: 1, BlocksPerPlane: blocks/dies + 2, PagesPerBlock: ppb,
			PageSize: pageSize, OOBSize: 128,
		},
		Cell: noftl.SLC,
	}
}
