package bench

import (
	"fmt"
	"slices"

	"noftl/internal/serve"
	"noftl/internal/system"
)

// One experiment spec. Every multi-run experiment — Figure 4's die
// sweep, the stack sweeps (headline, delta, regions), the scheduling
// (A7) and HTAP (A8) ablations and the serving-front ablation — is a
// list of variants, each measured on a freshly built, otherwise
// identical system (the uFLIP methodology: vary one factor over
// state-reset runs). runVariants measures the list and returns one Row
// per variant in declaration order; that order is the determinism
// contract, and the merge order once variants run in parallel.

// variant is one entry of an experiment's list: its name, the stack and
// builder options of its system, and the run itself.
type variant struct {
	name  string
	stack system.Stack
	opts  []system.Option
	run   func(*system.System) (*RunResult, error)
}

// Row is one variant's measurement.
type Row struct {
	// Name is the variant's name: the stack in the sweeps, the regime or
	// policy elsewhere.
	Name   string
	Stack  system.Stack
	Result RunResult
	// Occupancy is the data volume's live fraction at the end of the run
	// (0 on block-device stacks).
	Occupancy float64
	// Front is the serving front the run admitted through (nil unless
	// the run started one): its whole-run and per-tenant admission
	// accounting.
	Front *serve.Front
	Observed
}

// Rows is a multi-run experiment's outcome: one row per variant, in
// declaration order.
type Rows struct {
	Experiment string
	Workload   string
	Rows       []Row
}

// runVariants measures each variant on a freshly built system, in
// declaration order. An error names the experiment and the variant, and
// no partial result comes back.
func (p Params) runVariants(exp, workload string, vs []variant) (*Rows, error) {
	res := &Rows{Experiment: exp, Workload: workload}
	for _, v := range vs {
		row, err := p.runVariant(v)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", exp, v.name, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// runVariant is one variant's build → run → occupancy → observe.
func (p Params) runVariant(v variant) (*Row, error) {
	sys, err := p.build(v.stack, v.opts...)
	if err != nil {
		return nil, err
	}
	r, err := v.run(sys)
	if err != nil {
		return nil, err
	}
	return &Row{Name: v.name, Stack: v.stack, Result: *r, Occupancy: occupancy(sys), Front: sys.Serve,
		Observed: p.observe(sys)}, nil
}

// only keeps the variants named in names (all of them when names is
// empty), in declaration order.
func only(names []string, vs []variant) []variant {
	if len(names) == 0 {
		return vs
	}
	var kept []variant
	for _, v := range vs {
		if slices.Contains(names, v.name) {
			kept = append(kept, v)
		}
	}
	return kept
}

// Row returns the named variant's measurement (nil if it did not run).
func (r *Rows) Row(name string) *Row {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Ratio is metric(num)/metric(den) over two of the experiment's rows (0
// when either is absent or the denominator is zero).
func (r *Rows) Ratio(num, den string, metric func(*RunResult) float64) float64 {
	n, d := r.Row(num), r.Row(den)
	if n == nil || d == nil || metric(&d.Result) == 0 {
		return 0
	}
	return metric(&n.Result) / metric(&d.Result)
}

// Metrics for Rows.Ratio (RunResult.BytesPerTx and ErasesPerKTx are two
// more; the HTAP and serving experiments add their own).

// TPS is the run's committed transactions per second.
func TPS(r *RunResult) float64 { return r.TPS }

// CommitP99 is the run's p99 commit latency.
func CommitP99(r *RunResult) float64 { return float64(r.CommitHist.Percentile(99)) }

// ReadP99 is the run's p99 buffer-pool read-miss latency.
func ReadP99(r *RunResult) float64 { return float64(r.ReadHist.Percentile(99)) }

// reports holds what each experiment renders its own way: the table's
// columns, and the JSON columns beyond the common ones (nil: none).
var reports = map[string]struct {
	table  func(*Rows) string
	extras func(*Row, *JSONResult)
}{
	"fig4":     {fig4Table, nil},
	"headline": {headlineTable, nil},
	"delta":    {deltaTable, nil},
	"regions":  {regionsTable, nil},
	"sched":    {schedTable, schedExtras},
	"htap":     {htapTable, htapExtras},
	"serve":    {serveTable, serveExtras},
}

// Table renders the experiment's own table.
func (r *Rows) Table() string { return reports[r.Experiment].table(r) }

// AddTo appends one machine-readable row per variant: the common fields
// from its run, the columns its observability attachments feed, and the
// experiment's extras. A row's mode is its name where that is not the
// stack's own.
func (r *Rows) AddTo(rep *JSONReport) {
	extras := reports[r.Experiment].extras
	for i := range r.Rows {
		row := &r.Rows[i]
		jr := JSONResult{Experiment: r.Experiment, Workload: r.Workload, Stack: string(row.Stack)}
		if row.Name != jr.Stack {
			jr.Mode = row.Name
		}
		jr.setObserved(&row.Observed)
		if extras != nil {
			extras(row, &jr)
		}
		rep.Add(jr, &row.Result)
	}
}
