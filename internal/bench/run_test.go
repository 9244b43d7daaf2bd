package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"noftl/internal/sim"
	"noftl/internal/workload"
)

type rowAdder interface{ AddTo(*JSONReport) }

// loopDrivers runs each of the five drivers built on the run loop at
// tiny scale. brief shortens the phases to the minimum that still lets
// every background process tick; fault is the injection seam.
var loopDrivers = []struct {
	name string
	run  func(seed int64, brief bool, fault func(string) error) (rowAdder, error)
}{
	{"tps", func(seed int64, brief bool, fault func(string) error) (rowAdder, error) {
		cfg := tinySchedConfig(seed)
		cfg.Modes = []string{"inline-gc", "bg-gc+prio"}
		if brief {
			cfg.Modes = cfg.Modes[1:] // the regime with maintenance workers
		}
		cfg.Params = briefly(cfg.Params, brief, fault)
		return SchedAblation(cfg)
	}},
	{"htap", func(seed int64, brief bool, fault func(string) error) (rowAdder, error) {
		cfg := tinyHTAPConfig(seed)
		if brief {
			cfg.Modes = []string{"scan-resist+prefetch"} // the policy with prefetchers
		}
		cfg.Params = briefly(cfg.Params, brief, fault)
		return HTAPAblation(cfg)
	}},
	{"qos", func(seed int64, brief bool, fault func(string) error) (rowAdder, error) {
		cfg := blameQoSConfig()
		cfg.Seed, cfg.Blame = seed, nil
		cfg.Params = briefly(cfg.Params, brief, fault)
		return QoS(cfg)
	}},
	{"fig4", func(seed int64, brief bool, fault func(string) error) (rowAdder, error) {
		cfg := Fig4Config{
			Params: Params{DriveMB: 24, Workers: 8, Frames: 128,
				Warm: 300 * sim.Millisecond, Measure: 1 * sim.Second, Seed: seed},
			Workload: "tpcb",
			Sweep:    []int{2},
			TPCB:     workload.TPCBConfig{Branches: 4, AccountsPerBranch: 2000},
		}
		cfg.Params = briefly(cfg.Params, brief, fault)
		return Figure4(cfg)
	}},
	{"serve", func(seed int64, brief bool, fault func(string) error) (rowAdder, error) {
		cfg := tinyServeConfig(seed)
		if brief {
			cfg.Settle = 50 * sim.Millisecond
		}
		cfg.Params = briefly(cfg.Params, brief, fault)
		return Serve(cfg)
	}},
}

func briefly(p Params, brief bool, fault func(string) error) Params {
	if brief {
		p.Warm, p.Measure = 150*sim.Millisecond, 100*sim.Millisecond
	}
	p.fault = fault
	return p
}

// TestRunLoopDeterministicRows: for every driver on the run loop, the
// same seed twice gives byte-identical machine-readable output — and
// every whole-system row that saw erases reports the flash traffic
// behind them (wa, bytes_per_tx filled, not committed as zeros).
func TestRunLoopDeterministicRows(t *testing.T) {
	for _, d := range loopDrivers {
		t.Run(d.name, func(t *testing.T) {
			render := func() (*JSONReport, []byte) {
				res, err := d.run(7, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				report := &JSONReport{Seed: 7}
				res.AddTo(report)
				out, err := json.MarshalIndent(report, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				return report, out
			}
			report, a := render()
			if _, b := render(); !bytes.Equal(a, b) {
				t.Fatalf("two identical %s runs diverged:\n%s\n---\n%s", d.name, a, b)
			}
			erased := false
			for _, row := range report.Results {
				if row.Committed == 0 {
					t.Fatalf("row %s/%s committed nothing", row.Experiment, row.Mode)
				}
				if row.Erases > 0 {
					erased = true
					if row.BytesPerTx <= 0 || row.WA < 1 {
						t.Fatalf("row %s/%s: %d erases but bytes_per_tx=%v wa=%v",
							row.Experiment, row.Mode, row.Erases, row.BytesPerTx, row.WA)
					}
				}
			}
			// Per-tenant qos rows carry no device counters by design.
			if perTenant := d.name == "qos"; erased == perTenant {
				t.Fatalf("%s rows: device fields filled = %v", d.name, erased)
			}
		})
	}
}

// TestRunLoopBackgroundFaultFailsRun: a background process dying must
// fail the run in every driver instead of yielding a quietly different
// number. (db-writers have no fatal path: storage.WriterConfig reports
// no errors, a failed flush is retried at the next poll. Figure 4 runs
// plain NoFTL, without background GC: its only fatal background process
// is the checkpointer.)
func TestRunLoopBackgroundFaultFailsRun(t *testing.T) {
	boom := errors.New("injected fault")
	for _, d := range loopDrivers {
		procs := []string{"maintenance", "checkpointer"}
		switch d.name {
		case "htap":
			procs = append(procs, "prefetcher")
		case "fig4":
			procs = procs[1:]
		}
		for _, proc := range procs {
			t.Run(d.name+"/"+proc, func(t *testing.T) {
				asked := false
				_, err := d.run(7, true, func(p string) error {
					if p != proc {
						return nil
					}
					asked = true
					return boom
				})
				if !asked {
					t.Fatalf("%s never started a %s", d.name, proc)
				}
				if !errors.Is(err, boom) {
					t.Fatalf("%s with a dead %s returned err = %v, want the injected fault", d.name, proc, err)
				}
				if d.name == "fig4" && !strings.HasPrefix(err.Error(), "fig4 2/global: ") {
					t.Fatalf("fig4 error %q does not name the point", err)
				}
			})
		}
	}
}
