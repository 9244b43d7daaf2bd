package telemetry

import (
	"encoding/json"
	"io"
	"strconv"

	"noftl/internal/ioreq"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

// Chrome trace-event JSON exporter: the output loads directly into
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Track layout:
//   - pid 1 "flash commands": one thread per die carrying every
//     dispatched command as a complete ("X") slice; erases get a
//     separate per-die thread because reads served during an erase
//     suspension overlap the erase's service window.
//   - pid 2 "transactions": one thread per terminal carrying each
//     transaction span as a slice, with its stage segments nested
//     inside (Perfetto nests same-track "X" events by containment).
//
// Everything is emitted in deterministic order (command-log order,
// span order, struct-typed events), so a fixed-seed run exports
// byte-identical JSON.

// TraceEvent is one Chrome trace-event record.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the trace-event JSON file structure.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const (
	tracePIDFlash = 1
	tracePIDTx    = 2
	// eraseTrackBase offsets a die's erase thread from its command
	// thread.
	eraseTrackBase = 1000
)

// WriteTrace renders the command log and the retained spans as
// trace-event JSON. Either input may be empty.
func WriteTrace(w io.Writer, events []sched.Event, spans []*ioreq.Span) error {
	f := TraceFile{DisplayTimeUnit: "ns", TraceEvents: []TraceEvent{}}
	meta := func(pid, tid int, name string) {
		f.TraceEvents = append(f.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta0 := func(pid int, name string) {
		f.TraceEvents = append(f.TraceEvents, TraceEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
	}

	dieSeen := map[int]bool{}
	eraseSeen := map[int]bool{}
	if len(events) > 0 {
		meta0(tracePIDFlash, "flash commands")
	}
	for _, ev := range events {
		tid := ev.Die
		if ev.Op == "erase" {
			tid = eraseTrackBase + ev.Die
			if !eraseSeen[ev.Die] {
				eraseSeen[ev.Die] = true
				meta(tracePIDFlash, tid, "die "+itoa(ev.Die)+" erase")
			}
		} else if !dieSeen[ev.Die] {
			dieSeen[ev.Die] = true
			meta(tracePIDFlash, ev.Die, "die "+itoa(ev.Die))
		}
		args := map[string]any{
			"class":   ev.Class.String(),
			"wait_us": usFloat(ev.Start - ev.Arrival),
		}
		if ev.Tag != 0 {
			args["tag"] = ev.Tag
		}
		if ev.Suspends > 0 {
			args["suspends"] = ev.Suspends
		}
		f.TraceEvents = append(f.TraceEvents, TraceEvent{
			Name: ev.Op, Cat: ev.Class.String(), Ph: "X",
			TS: usFloat(ev.Start), Dur: usFloat(ev.End - ev.Start),
			PID: tracePIDFlash, TID: tid, Args: args,
		})
	}

	termSeen := map[int]bool{}
	if len(spans) > 0 {
		meta0(tracePIDTx, "transactions")
	}
	for _, sp := range spans {
		if !termSeen[sp.TID] {
			termSeen[sp.TID] = true
			meta(tracePIDTx, sp.TID, "terminal "+itoa(sp.TID))
		}
		args := map[string]any{"id": sp.ID, "flash_cmds": sp.Cmds}
		if sp.Tag != 0 {
			args["tag"] = sp.Tag
		}
		if sp.Missed() {
			args["deadline_missed"] = true
		}
		for st := ioreq.Stage(0); st < ioreq.NumStages; st++ {
			if d := sp.Durations[st]; d != 0 {
				args[st.String()+"_us"] = usFloat(d)
			}
		}
		f.TraceEvents = append(f.TraceEvents, TraceEvent{
			Name: "tx", Ph: "X",
			TS: usFloat(sp.Start), Dur: usFloat(sp.End - sp.Start),
			PID: tracePIDTx, TID: sp.TID, Args: args,
		})
		for _, seg := range sp.Segs {
			f.TraceEvents = append(f.TraceEvents, TraceEvent{
				Name: seg.Stage.String(), Ph: "X",
				TS: usFloat(seg.From), Dur: usFloat(seg.To - seg.From),
				PID: tracePIDTx, TID: sp.TID,
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&f)
}

func itoa(n int) string { return strconv.Itoa(n) }

// MetricsDump is the machine-readable metrics file: the sampled time
// series plus the flight recorder's retained breakdowns.
type MetricsDump struct {
	SamplePeriodNs sim.Time `json:"sample_every_ns"`
	Series         *Series  `json:"series"`
	// Slowest holds the flight recorder's slowest-K commits, slowest
	// first, each decomposed by stage.
	Slowest []SpanDump `json:"slowest"`
	// DeadlineMisses maps tag to its total deadline-miss count.
	DeadlineMisses map[uint32]int64 `json:"deadline_misses,omitempty"`
	// MissSpans holds the retained miss spans per tag (bounded ring).
	MissSpans map[uint32][]SpanDump `json:"miss_spans,omitempty"`
}

// WriteMetrics renders the time series and flight-recorder dump as
// indented JSON.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	d := MetricsDump{
		SamplePeriodNs: sampleEvery,
		Series:         t.Series(),
		Slowest:        []SpanDump{},
	}
	for _, sp := range t.rec.Slowest() {
		d.Slowest = append(d.Slowest, DumpSpan(sp))
	}
	if tags := t.rec.MissTags(); len(tags) > 0 {
		d.DeadlineMisses = map[uint32]int64{}
		d.MissSpans = map[uint32][]SpanDump{}
		for _, tag := range tags {
			d.DeadlineMisses[tag] = t.rec.MissCount(tag)
			var dumps []SpanDump
			for _, sp := range t.rec.Misses(tag) {
				dumps = append(dumps, DumpSpan(sp))
			}
			d.MissSpans[tag] = dumps
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&d)
}
