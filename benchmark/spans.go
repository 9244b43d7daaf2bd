package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// benchSpan is one span of the benchmark's own trace: the run and its
// phases, recorded from outside the stack in host time.
type benchSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // host time since process start
	EndNs   int64  `json:"end_ns"`
}

// tracer records benchmark spans in memory; a nil tracer (untraced
// runs) records nothing. Spans nest by call order: begin opens a child
// of the innermost open span.
type tracer struct {
	spans []benchSpan
	open  []int // indices of open spans, innermost last
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, benchSpan{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: wallNs()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.open) == 0 {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNs = wallNs()
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}

// spanAgg is the benchmark's own sink for the stack's request spans:
// it sums the exclusive per-stage durations, which says where simulated
// latency went.
type spanAgg struct {
	n      int64
	stages [ioreq.NumStages]sim.Time
}

func (a *spanAgg) add(s *ioreq.Span) {
	a.n++
	for i, d := range s.Durations {
		a.stages[i] += d
	}
}

// usPerSpan is the mean simulated microseconds a request spent in one
// stage.
func (a *spanAgg) usPerSpan(st ioreq.Stage) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.stages[st]) / float64(sim.Microsecond) / float64(a.n)
}
