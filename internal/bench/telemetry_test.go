package bench

import (
	"bytes"
	"strings"
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/blame"
)

func tinyTelemetryConfig(seed int64) SchedConfig {
	cfg := tinySchedConfig(seed)
	cfg.Modes = []string{"bg-gc+prio"}
	cfg.Blame = &blame.Config{} // owns the command log the trace export draws from
	cfg.Telemetry = &telemetry.Config{SlowestK: 8, RetainSpans: true}
	return cfg
}

// TestTelemetryAcceptance drives the priority regime with the full
// pipeline on and checks the PR's acceptance criteria: spans decompose
// into per-layer stages summing exactly to end-to-end latency, the
// exported trace covers every dispatched command, the series has dense
// per-class queue-wait sampling, and the flight recorder retains the
// slowest-K breakdowns.
func TestTelemetryAcceptance(t *testing.T) {
	res, err := SchedAblation(tinyTelemetryConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	row := &res.Rows[0]
	tel := row.Tel
	if tel == nil {
		t.Fatal("telemetry pipeline missing from the row")
	}

	// Every counted commit produced a span whose stage durations sum
	// exactly to its latency (the flight recorder's invariant).
	spans := tel.Spans()
	if int64(len(spans)) != row.Result.Committed {
		t.Fatalf("spans = %d, committed = %d", len(spans), row.Result.Committed)
	}
	var spanCmds int64
	for _, sp := range spans {
		if stageSum(sp) != sp.Latency() {
			t.Fatalf("span %#x: stage sum %v != latency %v", sp.ID, stageSum(sp), sp.Latency())
		}
		if sp.Latency() <= 0 {
			t.Fatalf("span %#x: non-positive latency %v", sp.ID, sp.Latency())
		}
		spanCmds += sp.Cmds
	}
	if spanCmds == 0 {
		t.Fatal("no span saw a scheduled flash command")
	}

	// The command log records every dispatched command, so the exported
	// trace's command slices cover 100% >= 99% of them.
	if got, want := int64(len(row.CmdLog)), row.Result.Sched.TotalScheduled(); got != want {
		t.Fatalf("trace covers %d commands, scheduler dispatched %d", got, want)
	}

	// Per-class sampling over sim time: warm+measure at the 100 ms
	// sampling period gives well over the required 5 points.
	series := tel.Series()
	if len(series.Samples) < 5 {
		t.Fatalf("series has %d samples, want >= 5", len(series.Samples))
	}
	wait := series.Column("sched.wait.read_us")
	if len(wait) != len(series.Samples) {
		t.Fatalf("per-class wait column missing: %v", series.Names)
	}
	if tps := series.Column("commit.tps"); tps == nil {
		t.Fatalf("commit.tps column missing: %v", series.Names)
	}

	// Flight recorder: slowest-K retained, latency-sorted, decomposed.
	slow := tel.Recorder().Slowest()
	if len(slow) != 8 {
		t.Fatalf("flight recorder retained %d spans, want 8", len(slow))
	}
	for i, sp := range slow {
		if stageSum(sp) != sp.Latency() {
			t.Fatalf("slowest[%d]: stage sum %v != latency %v", i, stageSum(sp), sp.Latency())
		}
		if i > 0 && sp.Latency() > slow[i-1].Latency() {
			t.Fatal("flight recorder not sorted by latency")
		}
	}
	table := tel.SlowestTable()
	for st := ioreq.Stage(0); st < ioreq.NumStages; st++ {
		if !strings.Contains(table, st.String()) {
			t.Fatalf("slowest table missing stage column %q:\n%s", st, table)
		}
	}
}

// TestTelemetryDeterministicExports runs the instrumented regime twice
// with one seed and expects byte-identical trace-event JSON and metrics
// dumps — the exporters are downstream of the deterministic simulation,
// so any divergence is nondeterminism in the pipeline itself.
func TestTelemetryDeterministicExports(t *testing.T) {
	export := func() (traceJSON, metricsJSON []byte) {
		res, err := SchedAblation(tinyTelemetryConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		row := &res.Rows[0]
		var tb, mb bytes.Buffer
		if err := telemetry.WriteTrace(&tb, row.CmdLog, row.Tel.Spans()); err != nil {
			t.Fatal(err)
		}
		if err := row.Tel.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	t1, m1 := export()
	t2, m2 := export()
	if !bytes.Equal(t1, t2) {
		t.Fatal("trace-event JSON diverged between identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics dump diverged between identical runs")
	}
	if len(t1) == 0 || len(m1) == 0 {
		t.Fatal("empty export")
	}
}

// TestTelemetryOffNoSpans checks the telemetry-off path stays the PR 5
// behavior: no pipeline, no spans, no sampler — and the run's results
// match a telemetry-on run of the same seed (observation must not
// perturb the simulation).
func TestTelemetryOffNoSpans(t *testing.T) {
	off := tinySchedConfig(13)
	off.Modes = []string{"bg-gc+prio"}
	resOff, err := SchedAblation(off)
	if err != nil {
		t.Fatal(err)
	}
	if resOff.Rows[0].Tel != nil {
		t.Fatal("telemetry attached without being asked for")
	}

	on := tinyTelemetryConfig(13)
	on.Blame = nil
	resOn, err := SchedAblation(on)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := resOff.Rows[0].Result, resOn.Rows[0].Result
	if ra.Committed != rb.Committed || ra.Device.Erases != rb.Device.Erases ||
		ra.Sched != rb.Sched {
		t.Fatalf("telemetry perturbed the simulation:\noff: committed=%d erases=%d\non:  committed=%d erases=%d",
			ra.Committed, ra.Device.Erases, rb.Committed, rb.Device.Erases)
	}
}

// stageSum adds up sp's per-stage durations: Latency once the span is
// finished.
func stageSum(sp *ioreq.Span) (sum sim.Time) {
	for _, d := range sp.Durations {
		sum += d
	}
	return sum
}
