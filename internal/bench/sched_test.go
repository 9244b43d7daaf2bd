package bench

import (
	"testing"

	"noftl/internal/sim"
)

func tinySchedConfig(seed int64) SchedConfig {
	return SchedConfig{Params: Params{Dies: 4, DriveMB: 24, Workers: 8, Writers: 4, Frames: 128,
		Warm: 300 * sim.Millisecond, Measure: 1 * sim.Second, Seed: seed}}
}

// TestSchedAblationSmoke runs the three regimes at tiny geometry and
// checks the result structure: work happened in every mode, latency
// histograms are populated, background modes report GC-worker progress,
// and the priority mode actually scheduled and suspended.
func TestSchedAblationSmoke(t *testing.T) {
	res, err := SchedAblation(tinySchedConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Result.Committed == 0 {
			t.Fatalf("%s committed nothing", row.Name)
		}
		if row.Result.CommitHist.Count() == 0 || row.Result.ReadHist.Count() == 0 {
			t.Fatalf("%s has empty latency histograms", row.Name)
		}
		if row.Result.Sched.TotalScheduled() == 0 {
			t.Fatalf("%s scheduled no commands", row.Name)
		}
		if row.Occupancy <= 0.5 || row.Occupancy > 1 {
			t.Fatalf("%s occupancy = %.2f, want GC-pressure regime", row.Name, row.Occupancy)
		}
	}
	for _, mode := range []string{"bg-gc", "bg-gc+prio"} {
		if res.Row(mode).Result.GCSteps == 0 {
			t.Fatalf("%s background workers made no GC progress", mode)
		}
	}
	if res.Row("inline-gc").Result.GCSteps != 0 {
		t.Fatal("inline mode ran background GC workers")
	}
	prio := res.Row("bg-gc+prio")
	if prio.Result.Sched.EraseSuspends == 0 {
		t.Fatal("priority mode never suspended an erase")
	}
	if res.Row("inline-gc").Result.Sched.EraseSuspends != 0 {
		t.Fatal("FCFS mode suspended an erase")
	}
	// Priority scheduling must shorten the read tail versus FCFS inline
	// GC (the headline claim; commit tails need the full-scale run to
	// separate cleanly from bucket noise).
	if r := res.Ratio("bg-gc+prio", "inline-gc", ReadP99); r >= 1 {
		t.Fatalf("read p99 ratio = %.2f, want < 1", r)
	}
}

// TestSchedAblationDeterministic repeats the priority regime with a
// fixed seed and expects identical throughput and device counters —
// per-request descriptors must not introduce scheduling
// nondeterminism.
func TestSchedAblationDeterministic(t *testing.T) {
	cfg := tinySchedConfig(7)
	cfg.Modes = []string{"bg-gc+prio"}
	a, err := SchedAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SchedAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i].Result, b.Rows[i].Result
		if ra.Committed != rb.Committed || ra.Device.Erases != rb.Device.Erases ||
			ra.Sched != rb.Sched {
			t.Fatalf("nondeterministic %s ablation:\n%+v\n%+v",
				a.Rows[i].Name, ra.Device, rb.Device)
		}
		if ra.CommitHist.Percentile(99) != rb.CommitHist.Percentile(99) {
			t.Fatalf("%s commit p99 diverged between identical runs", a.Rows[i].Name)
		}
	}
}

// TestSchedJSONRow checks the machine-readable output carries the
// latency tails and scheduler accounting.
func TestSchedJSONRow(t *testing.T) {
	cfg := tinySchedConfig(11)
	cfg.Modes = []string{"bg-gc+prio"}
	res, err := SchedAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report := &JSONReport{Seed: 11}
	res.AddTo(report)
	if len(report.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(report.Results))
	}
	r := report.Results[0]
	if r.Experiment != "sched" || r.Mode != "bg-gc+prio" {
		t.Fatalf("bad row identity: %+v", r)
	}
	if r.CommitP99us <= 0 || r.ReadP99us <= 0 {
		t.Fatalf("latency tails missing: %+v", r)
	}
	if r.EraseSuspends == 0 {
		t.Fatalf("erase suspends missing: %+v", r)
	}
}

// TestKernelEventsOfTheSchedSmoke is the stack-level guard on the
// kernel's cost model: on the full write path (regions, priority
// scheduler, background GC, eight TPC-B terminals) every wait — latch,
// group commit, lock, frame load, idle worker — is a hand-off from
// whoever releases it, so the kernel fires an event only when something
// happens. The counts repeat exactly per seed, so the guard is exact:
// 469,981 events while those waits re-tested their conditions on 10–200 µs
// ticks, and at most a quarter of that is the bar. The pin is 105,540
// since the engine's checkpointer parks until the log wakes it (104,708
// while it polled on a 100 ms tick), the GC workers are the only
// maintenance processes (104,747 while a wear-leveling sweep also slept
// on a 50 ms period), and the
// db-writers and the checkpointer declare their class in this regime
// (103,619 while they declared nothing), and the writers park until a frame is
// due (88,446 before, when they slept 200 µs between polls: fewer
// commits then, 24.2 events per commit against 17.8). A reintroduced
// periodic wait moves the count. A resume costs at most one goroutine
// switch — none when the process that parked is the next to run — so
// Switches may not pass Resumes.
func TestKernelEventsOfTheSchedSmoke(t *testing.T) {
	cfg := tinySchedConfig(42)
	cfg.Modes = []string{"bg-gc+prio"}
	res, err := SchedAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Rows[0].Result.Kernel
	t.Logf("kernel: %+v (resumes %.1f%% of events; %.1f%% of resumes kept the goroutine; %.1f events per commit)", st,
		100*float64(st.Resumes)/float64(st.Events), 100*(1-float64(st.Switches)/float64(st.Resumes)),
		float64(st.Events)/float64(res.Rows[0].Result.Committed))
	const polled, want = 469_981, 105_540
	if st.Events != want || 4*st.Events > polled {
		t.Errorf("%d kernel events, want exactly %d (at most a quarter of the %d the polling waits fired)", st.Events, want, polled)
	}
	if st.Switches > st.Resumes {
		t.Errorf("%d goroutine switches for %d resumes: a wake-up costs more than one hand-off again", st.Switches, st.Resumes)
	}
}
