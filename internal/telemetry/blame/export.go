package blame

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
	"noftl/internal/stats"
)

func usf(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// culpritLabel renders a culprit as one flame/table frame. Labels never
// contain spaces or semicolons (folded-stack separators).
func (r *Report) culpritLabel(c Culprit) string {
	return fmt.Sprintf("%s:%s@die%d:%s", c.Class, r.tagName(c.Tag), c.Die, c.Kind)
}

// TopTable renders the n largest matrix cells by blamed wait.
func (r *Report) TopTable(n int) string {
	cells := make([]Cell, len(r.Cells))
	copy(cells, r.Cells)
	sort.SliceStable(cells, func(a, b int) bool { return cells[a].Wait > cells[b].Wait })
	if n < len(cells) {
		cells = cells[:n]
	}
	return r.matrixTable(cells)
}

func (r *Report) matrixTable(cells []Cell) string {
	// Victim totals over the whole matrix, so a truncated table still
	// shows each row's true share.
	totals := map[Victim]sim.Time{}
	for i := range r.Cells {
		totals[r.Cells[i].Victim] += r.Cells[i].Wait
	}
	t := stats.NewTable("victim", "vclass", "culprit", "cclass", "die", "kind", "wait_ms", "share", "edges")
	for i := range cells {
		c := &cells[i]
		share := 0.0
		if tot := totals[c.Victim]; tot > 0 {
			share = float64(c.Wait) / float64(tot)
		}
		t.Row(r.tagName(c.Victim.Tag), c.Victim.Class.String(),
			r.tagName(c.Culprit.Tag), c.Culprit.Class.String(),
			c.Culprit.Die, c.Culprit.Kind.String(),
			fmt.Sprintf("%.3f", usf(c.Wait)/1000),
			fmt.Sprintf("%.1f%%", 100*share),
			c.Edges)
	}
	return t.String()
}

// SlowestTable renders the k slowest joined spans with their top blame
// shares — the flight-recorder view annotated with root cause.
func (r *Report) SlowestTable(k int) string {
	if k <= 0 {
		k = r.cfg.SlowestK
	}
	sbs := r.sortedSpanBlames()
	sort.SliceStable(sbs, func(a, b int) bool { return sbs[a].Latency > sbs[b].Latency })
	if k < len(sbs) {
		sbs = sbs[:k]
	}
	t := stats.NewTable("span", "tag", "latency_us", "queue_us", "missed", "top culprit", "share")
	for _, sb := range sbs {
		top, share := "-", "-"
		if len(sb.Shares) > 0 && sb.Blamed > 0 {
			top = r.culpritLabel(sb.Shares[0].Culprit)
			share = fmt.Sprintf("%.0f%%", 100*float64(sb.Shares[0].Wait)/float64(sb.Blamed))
		}
		missed := ""
		if sb.Missed {
			missed = "MISS"
		}
		t.Row(fmt.Sprintf("%#x", sb.ID), r.tagName(sb.Tag),
			fmt.Sprintf("%.1f", usf(sb.Latency)), fmt.Sprintf("%.1f", usf(sb.Recorded)),
			missed, top, share)
	}
	return t.String()
}

// foldedEntry is one collapsed stack with its aggregated weight.
type foldedEntry struct {
	stack  string
	weight sim.Time
}

// folded aggregates the joined spans' critical-path time into collapsed
// stacks: tag;stage for every non-queue stage, and
// tag;sched-queue;culprit for the blame-decomposed queue wait.
func (r *Report) folded() []foldedEntry {
	acc := map[string]sim.Time{}
	for _, sp := range r.joined {
		root := r.tagName(sp.Tag)
		for st := ioreq.Stage(0); st < ioreq.NumStages; st++ {
			d := sp.Durations[st]
			if d <= 0 || st == ioreq.StageSchedQ {
				continue
			}
			acc[root+";"+st.String()] += d
		}
		qroot := root + ";" + ioreq.StageSchedQ.String()
		sb := r.Spans[sp.ID]
		if sb == nil {
			if d := sp.Durations[ioreq.StageSchedQ]; d > 0 {
				acc[qroot+";(unattributed)"] += d
			}
			continue
		}
		for _, s := range sb.Shares {
			acc[qroot+";"+r.culpritLabel(s.Culprit)] += s.Wait
		}
		if sb.Unattributed > 0 {
			acc[qroot+";(unattributed)"] += sb.Unattributed
		}
	}
	out := make([]foldedEntry, 0, len(acc))
	for s, w := range acc {
		out = append(out, foldedEntry{stack: s, weight: w})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].stack < out[b].stack })
	return out
}

// WriteFolded writes the collapsed-stack text export ("stack weight"
// lines, weights in sim-time nanoseconds): flamegraph.pl input, and a
// file https://www.speedscope.app imports as is.
func (r *Report) WriteFolded(w io.Writer) error {
	for _, e := range r.folded() {
		if _, err := fmt.Fprintf(w, "%s %d\n", e.stack, int64(e.weight)); err != nil {
			return err
		}
	}
	return nil
}

type jsonShare struct {
	Culprit string  `json:"culprit"`
	WaitNs  int64   `json:"wait_ns"`
	Share   float64 `json:"share"`
}

type jsonVictim struct {
	Tag          string             `json:"tag"`
	WaitNs       int64              `json:"wait_ns"`
	Shares       map[string]float64 `json:"shares,omitempty"`
	MissedSpans  int                `json:"missed_spans"`
	MissedShares map[string]float64 `json:"missed_shares,omitempty"`
}

type jsonCell struct {
	Victim       string `json:"victim"`
	VictimClass  string `json:"victim_class"`
	Culprit      string `json:"culprit"`
	CulpritClass string `json:"culprit_class"`
	Die          int    `json:"die"`
	Kind         string `json:"kind"`
	WaitNs       int64  `json:"wait_ns"`
	Edges        int64  `json:"edges"`
}

type jsonSpan struct {
	ID        uint64      `json:"id"`
	Tag       string      `json:"tag"`
	LatencyUs float64     `json:"latency_us"`
	QueueNs   int64       `json:"queue_wait_ns"`
	BlamedNs  int64       `json:"blamed_ns"`
	Missed    bool        `json:"missed"`
	Top       []jsonShare `json:"top,omitempty"`
}

type jsonReport struct {
	TotalWaitNs    int64        `json:"total_wait_ns"`
	UnattributedNs int64        `json:"unattributed_ns"`
	Victims        []jsonVictim `json:"victims"`
	Matrix         []jsonCell   `json:"matrix"`
	Slowest        []jsonSpan   `json:"slowest"`
}

// WriteJSON writes the machine-readable report (blame.json under
// noftlbench -obs-dir): per-victim-tag culprit shares, the full matrix,
// and the slowest spans with their top culprits. Output is byte-deterministic.
func (r *Report) WriteJSON(w io.Writer) error {
	out := jsonReport{
		TotalWaitNs:    int64(r.TotalWait),
		UnattributedNs: int64(r.Unattributed),
		Matrix:         []jsonCell{},
		Slowest:        []jsonSpan{},
	}

	// Victim tags in matrix order (tag-ascending, deterministic).
	seen := map[uint32]bool{}
	var tags []uint32
	for i := range r.Cells {
		if t := r.Cells[i].Victim.Tag; !seen[t] {
			seen[t] = true
			tags = append(tags, t)
		}
	}
	missedBy := map[uint32]int{}
	for _, sb := range r.sortedSpanBlames() {
		if sb.Missed {
			missedBy[sb.Tag]++
		}
	}
	for _, tag := range tags {
		var wait sim.Time
		for i := range r.Cells {
			if r.Cells[i].Victim.Tag == tag {
				wait += r.Cells[i].Wait
			}
		}
		out.Victims = append(out.Victims, jsonVictim{
			Tag:          r.tagName(tag),
			WaitNs:       int64(wait),
			Shares:       r.ShareMap(tag),
			MissedSpans:  missedBy[tag],
			MissedShares: shareMap(r.MissedShares(tag)),
		})
	}

	for i := range r.Cells {
		c := &r.Cells[i]
		out.Matrix = append(out.Matrix, jsonCell{
			Victim:       r.tagName(c.Victim.Tag),
			VictimClass:  c.Victim.Class.String(),
			Culprit:      r.tagName(c.Culprit.Tag),
			CulpritClass: c.Culprit.Class.String(),
			Die:          c.Culprit.Die,
			Kind:         c.Culprit.Kind.String(),
			WaitNs:       int64(c.Wait),
			Edges:        c.Edges,
		})
	}

	sbs := r.sortedSpanBlames()
	sort.SliceStable(sbs, func(a, b int) bool { return sbs[a].Latency > sbs[b].Latency })
	if r.cfg.SlowestK < len(sbs) {
		sbs = sbs[:r.cfg.SlowestK]
	}
	for _, sb := range sbs {
		js := jsonSpan{
			ID: sb.ID, Tag: r.tagName(sb.Tag), LatencyUs: usf(sb.Latency),
			QueueNs: int64(sb.Recorded), BlamedNs: int64(sb.Blamed), Missed: sb.Missed,
		}
		for i, s := range sb.Shares {
			if i == 3 {
				break
			}
			share := 0.0
			if sb.Blamed > 0 {
				share = float64(s.Wait) / float64(sb.Blamed)
			}
			js.Top = append(js.Top, jsonShare{
				Culprit: r.culpritLabel(s.Culprit), WaitNs: int64(s.Wait), Share: share,
			})
		}
		out.Slowest = append(out.Slowest, js)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}
