package telemetry

import (
	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// FlightRecorder retains full span breakdowns for the requests worth a
// post-mortem: the slowest K overall, plus a bounded ring of deadline
// misses per tenant tag (with an exact total miss count per tag even
// when the ring wraps).
type FlightRecorder struct {
	k int

	slow      []*ioreq.Span // sorted by latency desc, ties by ID asc
	misses    map[uint32][]*ioreq.Span
	missCount map[uint32]int64
	tagOrder  []uint32 // first-appearance order of miss tags
}

// missRing bounds retained deadline-miss spans per tag (the miss counts
// stay exact past it).
const missRing = 256

// NewFlightRecorder builds a recorder keeping the slowest k spans and
// up to missRing deadline-miss spans per tag.
func NewFlightRecorder(k int) *FlightRecorder {
	return &FlightRecorder{
		k:         k,
		misses:    map[uint32][]*ioreq.Span{},
		missCount: map[uint32]int64{},
	}
}

// Record offers a finished span to the recorder.
func (fr *FlightRecorder) Record(sp *ioreq.Span) {
	if sp == nil {
		return
	}
	fr.recordSlow(sp)
	if sp.Missed() {
		if fr.missCount[sp.Tag] == 0 {
			fr.tagOrder = append(fr.tagOrder, sp.Tag)
		}
		fr.missCount[sp.Tag]++
		ring := append(fr.misses[sp.Tag], sp)
		if len(ring) > missRing {
			ring = ring[len(ring)-missRing:] // drop oldest
		}
		fr.misses[sp.Tag] = ring
	}
}

func (fr *FlightRecorder) recordSlow(sp *ioreq.Span) {
	if fr.k <= 0 {
		return
	}
	lat := sp.Latency()
	if len(fr.slow) == fr.k && lat <= fr.slow[fr.k-1].Latency() {
		return
	}
	// Insertion sort position: after every span at least as slow (ties
	// keep arrival order — deterministic under the DES kernel).
	i := len(fr.slow)
	for i > 0 && fr.slow[i-1].Latency() < lat {
		i--
	}
	fr.slow = append(fr.slow, nil)
	copy(fr.slow[i+1:], fr.slow[i:])
	fr.slow[i] = sp
	if len(fr.slow) > fr.k {
		fr.slow = fr.slow[:fr.k]
	}
}

// Slowest returns the retained slowest spans, slowest first.
func (fr *FlightRecorder) Slowest() []*ioreq.Span {
	return append([]*ioreq.Span(nil), fr.slow...)
}

// MissTags returns the tags that missed deadlines, in first-miss order.
func (fr *FlightRecorder) MissTags() []uint32 {
	return append([]uint32(nil), fr.tagOrder...)
}

// MissCount returns the total deadline misses recorded for a tag
// (exact even when the retention ring wrapped).
func (fr *FlightRecorder) MissCount(tag uint32) int64 { return fr.missCount[tag] }

// Misses returns the retained deadline-miss spans of a tag, oldest
// first.
func (fr *FlightRecorder) Misses(tag uint32) []*ioreq.Span {
	return append([]*ioreq.Span(nil), fr.misses[tag]...)
}

// SpanDump is a span's machine-readable breakdown (flight-recorder and
// metrics-file export).
type SpanDump struct {
	ID        uint64   `json:"id"`
	Terminal  int      `json:"terminal"`
	Tag       uint32   `json:"tag,omitempty"`
	StartNs   sim.Time `json:"start_ns"`
	EndNs     sim.Time `json:"end_ns"`
	LatencyNs sim.Time `json:"latency_ns"`
	DeadlnNs  sim.Time `json:"deadline_ns,omitempty"`
	Missed    bool     `json:"missed,omitempty"`
	Cmds      int64    `json:"flash_cmds"`
	// StagesNs maps stage name to its exclusive duration; the values
	// sum to latency_ns.
	StagesNs map[string]sim.Time `json:"stages_ns"`
}

// DumpSpan converts a finished span for export.
func DumpSpan(sp *ioreq.Span) SpanDump {
	d := SpanDump{
		ID:        sp.ID,
		Terminal:  sp.TID,
		Tag:       sp.Tag,
		StartNs:   sp.Start,
		EndNs:     sp.End,
		LatencyNs: sp.Latency(),
		DeadlnNs:  sp.Deadline,
		Missed:    sp.Missed(),
		Cmds:      sp.Cmds,
		StagesNs:  map[string]sim.Time{},
	}
	for st := ioreq.Stage(0); st < ioreq.NumStages; st++ {
		if v := sp.Durations[st]; v != 0 {
			d.StagesNs[st.String()] = v
		}
	}
	return d
}
