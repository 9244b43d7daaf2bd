// Package blame is the latency root-cause engine: it joins the per-die
// command timeline (the sched.Events of System.CmdLog) with
// per-transaction request spans (ioreq.Span) and attributes every
// command's queue wait to the specific commands that occupied its die
// ahead of it.
//
// The reconstruction leans on two scheduler invariants:
//
//   - each die's dispatcher is serial and never idles while its queue
//     is non-empty, so a waiting command's [Arrival, Start) window is
//     gaplessly covered by other commands' service windows on that die;
//   - an erase's [Start, End] window includes its suspension latency,
//     and any command served *inside* a suspension window appears in
//     the log with a service window nested within the erase's — so an
//     erase's true occupancy is its window minus the nested windows.
//
// From the per-victim attribution the engine aggregates a
// victim×culprit interference matrix (waiter tag/class vs blocker
// tag/class/die/kind), per-span blame decompositions whose blamed wait
// sums exactly (in sim-time nanoseconds) to the span's recorded
// sched-queue stage, and a folded-stack flame-graph export.
// Every export is byte-deterministic for a fixed seed: accumulation
// runs over the deterministic event log and all output orders are
// fully specified.
package blame

import (
	"fmt"
	"sort"

	"noftl/internal/ioreq"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

// Config tunes the engine and its renderings.
type Config struct {
	// TagNames maps stream tags to display names for tables and flame
	// stacks; unnamed tags render as "tag-N" and 0 as "untagged".
	TagNames map[uint32]string
	// SlowestK bounds the slowest-spans blame table (default 16).
	SlowestK int
}

// Kind classifies how a culprit blocked its victim.
type Kind uint8

// Blocking kinds.
const (
	// KindQueue: the culprit simply occupied the die (service time the
	// victim queued behind).
	KindQueue Kind = iota
	// KindErase: the culprit was an erase — its occupancy includes the
	// erase-suspend windows it imposed on preempting commands.
	KindErase
	// KindHazard: victim and culprit program into the same flash block,
	// so NAND program-order forced arrival-order service.
	KindHazard
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindQueue:
		return "queue"
	case KindErase:
		return "erase"
	case KindHazard:
		return "hazard"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Victim identifies the waiting side of a matrix cell.
type Victim struct {
	Tag   uint32
	Class sched.Class
}

// Culprit identifies the blocking side of a matrix cell.
type Culprit struct {
	Tag   uint32
	Class sched.Class
	Die   int
	Kind  Kind
}

// Cell is one interference-matrix entry: total wait the victim
// (tag, class) spent blocked behind the culprit (tag, class, die, kind).
type Cell struct {
	Victim  Victim
	Culprit Culprit
	Wait    sim.Time
	// Edges counts distinct victim-command/culprit-command pairs that
	// contributed to Wait.
	Edges int64
}

// Share is one culprit's slice of a span's blamed wait.
type Share struct {
	Culprit Culprit
	Wait    sim.Time
}

// SpanBlame is one transaction's queue-wait decomposition.
type SpanBlame struct {
	// ID, Tag, TID, Latency, Missed mirror the joined span.
	ID      uint64
	Tag     uint32
	TID     int
	Latency sim.Time
	Missed  bool
	// Recorded is the span's own StageSchedQ duration — the ground
	// truth the blamed shares must sum to.
	Recorded sim.Time
	// Blamed is the wait attributed to specific culprit commands;
	// Unattributed is the remainder not covered by any command's
	// occupancy (zero under the scheduler's no-idle invariant).
	Blamed       sim.Time
	Unattributed sim.Time
	// Shares decomposes Blamed by culprit, largest first.
	Shares []Share
}

// ClassShare is one culprit class's slice of an aggregated blamed wait.
type ClassShare struct {
	Class sched.Class
	Wait  sim.Time
	// Share is the fraction of the aggregate's total blamed wait.
	Share float64
}

// Report is the analyzed outcome.
type Report struct {
	// Cells is the victim×culprit interference matrix in canonical
	// order (victim tag, victim class, culprit tag, class, die, kind).
	Cells []Cell
	// Spans maps span ID to its blame decomposition, for every joined
	// span that waited at a command queue.
	Spans map[uint64]*SpanBlame
	// TotalWait is the queue wait summed over every logged command;
	// Unattributed is the part not covered by any other command's
	// occupancy on the victim's die.
	TotalWait    sim.Time
	Unattributed sim.Time

	cfg    Config
	joined []*ioreq.Span // spans passed in, with IDs, input order
}

type cellKey struct {
	v Victim
	c Culprit
}

// Analyze joins a command log with retained spans and attributes every
// command's queue wait. The spans may be nil (event-level matrix only).
func Analyze(events []sched.Event, spans []*ioreq.Span, cfg Config) *Report {
	if cfg.SlowestK <= 0 {
		cfg.SlowestK = 16
	}
	r := &Report{Spans: map[uint64]*SpanBlame{}, cfg: cfg}

	// Per-die event indices, ordered by service start. The log itself
	// is in completion order (commands served inside an erase's
	// suspension windows complete before the erase does).
	byDie := map[int][]int{}
	for i := range events {
		byDie[events[i].Die] = append(byDie[events[i].Die], i)
	}

	// Occupancy segments per die: a non-erase command occupies its full
	// [Start, End] service window; an erase occupies its window minus
	// the windows of commands nested inside it (served while the erase
	// was suspended). Segments on one die are pairwise disjoint.
	type seg struct {
		from, to sim.Time
		ev       int
	}
	segsByDie := map[int][]seg{}
	dies := make([]int, 0, len(byDie))
	for die := range byDie {
		dies = append(dies, die)
	}
	sort.Ints(dies)
	for _, die := range dies {
		idxs := byDie[die]
		sort.SliceStable(idxs, func(a, b int) bool {
			ea, eb := &events[idxs[a]], &events[idxs[b]]
			if ea.Start != eb.Start {
				return ea.Start < eb.Start
			}
			return ea.End < eb.End
		})
		var segs []seg
		for _, i := range idxs {
			e := &events[i]
			if e.End <= e.Start {
				continue
			}
			if e.Op != "erase" {
				segs = append(segs, seg{e.Start, e.End, i})
				continue
			}
			cur := e.Start
			lo := sort.Search(len(idxs), func(x int) bool { return events[idxs[x]].Start >= e.Start })
			for _, j := range idxs[lo:] {
				o := &events[j]
				if o.Start >= e.End {
					break
				}
				if j == i || o.End > e.End {
					continue
				}
				if o.Start > cur {
					segs = append(segs, seg{cur, o.Start, i})
				}
				if o.End > cur {
					cur = o.End
				}
			}
			if cur < e.End {
				segs = append(segs, seg{cur, e.End, i})
			}
		}
		sort.Slice(segs, func(a, b int) bool { return segs[a].from < segs[b].from })
		segsByDie[die] = segs
	}

	spanByID := map[uint64]*ioreq.Span{}
	for _, sp := range spans {
		if sp != nil && sp.ID != 0 {
			spanByID[sp.ID] = sp
			r.joined = append(r.joined, sp)
		}
	}

	cells := map[cellKey]*Cell{}
	shareAt := map[uint64]map[Culprit]sim.Time{}
	for i := range events {
		v := &events[i]
		wait := v.Start - v.Arrival
		if wait <= 0 {
			continue
		}
		r.TotalWait += wait
		var sb *SpanBlame
		if v.Span != 0 {
			if sp, ok := spanByID[v.Span]; ok {
				sb = r.Spans[v.Span]
				if sb == nil {
					sb = &SpanBlame{
						ID:       sp.ID,
						Tag:      sp.Tag,
						TID:      sp.TID,
						Latency:  sp.Latency(),
						Missed:   sp.Missed(),
						Recorded: sp.Durations[ioreq.StageSchedQ],
					}
					r.Spans[v.Span] = sb
					shareAt[v.Span] = map[Culprit]sim.Time{}
				}
			}
		}
		var covered sim.Time
		segs := segsByDie[v.Die]
		lo := sort.Search(len(segs), func(x int) bool { return segs[x].to > v.Arrival })
		for _, sg := range segs[lo:] {
			if sg.from >= v.Start {
				break
			}
			if sg.ev == i {
				continue
			}
			from, to := sg.from, sg.to
			if from < v.Arrival {
				from = v.Arrival
			}
			if to > v.Start {
				to = v.Start
			}
			if to <= from {
				continue
			}
			d := to - from
			covered += d
			u := &events[sg.ev]
			ck := culpritOf(v, u)
			key := cellKey{v: Victim{Tag: v.Tag, Class: v.Class}, c: ck}
			cell := cells[key]
			if cell == nil {
				cell = &Cell{Victim: key.v, Culprit: ck}
				cells[key] = cell
			}
			cell.Wait += d
			cell.Edges++
			if sb != nil {
				sb.Blamed += d
				shareAt[v.Span][ck] += d
			}
		}
		if un := wait - covered; un > 0 {
			r.Unattributed += un
			if sb != nil {
				sb.Unattributed += un
			}
		}
	}

	r.Cells = make([]Cell, 0, len(cells))
	for _, c := range cells {
		r.Cells = append(r.Cells, *c)
	}
	sort.Slice(r.Cells, func(a, b int) bool { return cellLess(&r.Cells[a], &r.Cells[b]) })

	for id, sb := range r.Spans {
		m := shareAt[id]
		sb.Shares = make([]Share, 0, len(m))
		for ck, w := range m {
			sb.Shares = append(sb.Shares, Share{Culprit: ck, Wait: w})
		}
		sort.Slice(sb.Shares, func(a, b int) bool {
			sa, sc := &sb.Shares[a], &sb.Shares[b]
			if sa.Wait != sc.Wait {
				return sa.Wait > sc.Wait
			}
			return culpritLess(sa.Culprit, sc.Culprit)
		})
	}
	return r
}

// culpritOf classifies how culprit u blocked victim v.
func culpritOf(v, u *sched.Event) Culprit {
	k := KindQueue
	switch {
	case u.Op == "erase":
		k = KindErase
	case v.Block >= 0 && v.Block == u.Block:
		k = KindHazard
	}
	return Culprit{Tag: u.Tag, Class: u.Class, Die: u.Die, Kind: k}
}

func culpritLess(a, b Culprit) bool {
	if a.Tag != b.Tag {
		return a.Tag < b.Tag
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Die != b.Die {
		return a.Die < b.Die
	}
	return a.Kind < b.Kind
}

func cellLess(a, b *Cell) bool {
	if a.Victim.Tag != b.Victim.Tag {
		return a.Victim.Tag < b.Victim.Tag
	}
	if a.Victim.Class != b.Victim.Class {
		return a.Victim.Class < b.Victim.Class
	}
	return culpritLess(a.Culprit, b.Culprit)
}

// tagName renders a stream tag for display.
func (r *Report) tagName(tag uint32) string {
	if n, ok := r.cfg.TagNames[tag]; ok {
		return n
	}
	if tag == 0 {
		return "untagged"
	}
	return fmt.Sprintf("tag-%d", tag)
}

// sortedSpanBlames returns the span decompositions ordered by span ID.
func (r *Report) sortedSpanBlames() []*SpanBlame {
	out := make([]*SpanBlame, 0, len(r.Spans))
	for _, sb := range r.Spans {
		out = append(out, sb)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// classShares turns a per-class wait accumulation into sorted shares.
func classShares(acc map[sched.Class]sim.Time) []ClassShare {
	var total sim.Time
	for _, w := range acc {
		total += w
	}
	out := make([]ClassShare, 0, len(acc))
	for c, w := range acc {
		s := ClassShare{Class: c, Wait: w}
		if total > 0 {
			s.Share = float64(w) / float64(total)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Wait != out[b].Wait {
			return out[a].Wait > out[b].Wait
		}
		return out[a].Class < out[b].Class
	})
	return out
}

// VictimShares aggregates the matrix's blamed wait by culprit class for
// victim commands carrying the given tag (event-level: includes
// commands of uncounted transactions and background traffic).
func (r *Report) VictimShares(tag uint32) []ClassShare {
	acc := map[sched.Class]sim.Time{}
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Victim.Tag != tag {
			continue
		}
		acc[c.Culprit.Class] += c.Wait
	}
	return classShares(acc)
}

// MissedShares aggregates blamed wait by culprit class over the spans
// of one victim tag that missed their deadline — "who caused this
// tenant's deadline misses".
func (r *Report) MissedShares(tag uint32) []ClassShare {
	acc := map[sched.Class]sim.Time{}
	for _, sb := range r.sortedSpanBlames() {
		if sb.Tag != tag || !sb.Missed {
			continue
		}
		for _, s := range sb.Shares {
			acc[s.Culprit.Class] += s.Wait
		}
	}
	return classShares(acc)
}

// DominantMissedCulprit returns the top culprit class behind tag's
// deadline misses; ok is false when no missed span carried blame.
func (r *Report) DominantMissedCulprit(tag uint32) (ClassShare, bool) {
	shares := r.MissedShares(tag)
	if len(shares) == 0 {
		return ClassShare{}, false
	}
	return shares[0], true
}

// ShareMap renders VictimShares(tag) as a class-name→share map (the
// blame_shares field of a qos row and of blame.json's victims).
func (r *Report) ShareMap(tag uint32) map[string]float64 {
	return shareMap(r.VictimShares(tag))
}

// ShareMapAll aggregates the whole matrix by culprit class — every
// victim, every tag — as a class-name→share map.
func (r *Report) ShareMapAll() map[string]float64 {
	acc := map[sched.Class]sim.Time{}
	for i := range r.Cells {
		acc[r.Cells[i].Culprit.Class] += r.Cells[i].Wait
	}
	return shareMap(classShares(acc))
}

func shareMap(shares []ClassShare) map[string]float64 {
	if len(shares) == 0 {
		return nil
	}
	m := make(map[string]float64, len(shares))
	for _, s := range shares {
		m[s.Class.String()] = s.Share
	}
	return m
}
