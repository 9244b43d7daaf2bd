package bench

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"noftl/internal/system"
)

// TestRunVariantsDeclarationOrder: rows come back in the order the
// variants were declared, each from its own run; a failing variant
// stops the list, names the experiment and the variant, and returns no
// partial Rows.
func TestRunVariantsDeclarationOrder(t *testing.T) {
	p := Params{Dies: 2, DriveMB: 16, Frames: 32}
	var ran []string
	v := func(name string, fail error) variant {
		return variant{name: name, stack: system.StackNoFTL, run: func(*system.System) (*RunResult, error) {
			ran = append(ran, name)
			return &RunResult{TPS: float64(len(ran))}, fail
		}}
	}
	res, err := p.runVariants("exp", "wl", only([]string{"c", "b"}, []variant{v("b", nil), v("a", nil), v("c", nil)}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "exp" || res.Workload != "wl" || len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res)
	}
	for i, want := range []string{"b", "c"} {
		row := res.Rows[i]
		if row.Name != want || row.Stack != system.StackNoFTL || row.Result.TPS != float64(i+1) {
			t.Fatalf("row %d = %s/%s tps %v, want %s from run %d", i, row.Name, row.Stack, row.Result.TPS, want, i+1)
		}
	}

	boom := errors.New("boom")
	ran = nil
	res, err = p.runVariants("exp", "wl", []variant{v("first", nil), v("second", boom), v("third", nil)})
	if res != nil || !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "exp second: ") {
		t.Fatalf("failing second variant: rows %v, err %v", res, err)
	}
	if strings.Join(ran, ",") != "first,second" {
		t.Fatalf("ran %v after the failure", ran)
	}
}

// TestRowsRatio: an absent row or a zero denominator gives 0, anything
// else metric(num)/metric(den).
func TestRowsRatio(t *testing.T) {
	r := &Rows{Rows: []Row{
		{Name: "a", Result: RunResult{TPS: 3}},
		{Name: "b", Result: RunResult{TPS: 7}},
		{Name: "idle"},
	}}
	for _, c := range []struct {
		num, den string
		want     float64
	}{
		{"a", "b", 3.0 / 7}, {"b", "a", 7.0 / 3}, {"idle", "a", 0},
		{"a", "idle", 0}, {"a", "absent", 0}, {"absent", "a", 0},
	} {
		if got := r.Ratio(c.num, c.den, TPS); got != c.want {
			t.Errorf("Ratio(%s, %s) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
}

// TestDieWiseSpeedup: the best die-wise over global TPS ratio across
// Figure 4's pairs, with a pair whose global run is idle counting 0
// (not Inf or NaN).
func TestDieWiseSpeedup(t *testing.T) {
	pair := func(dies string, global, dieWise float64) []Row {
		return []Row{{Name: dies + "/global", Result: RunResult{TPS: global}},
			{Name: dies + "/die-wise", Result: RunResult{TPS: dieWise}}}
	}
	r := &Rows{Experiment: "fig4", Rows: slices.Concat(pair("1", 100, 100), pair("4", 200, 290),
		pair("8", 400, 520), pair("16", 0, 50))}
	if got := r.DieWiseSpeedup(); got != 1.45 {
		t.Errorf("DieWiseSpeedup = %v, want 1.45 (the 4-die pair)", got)
	}
	idle := &Rows{Experiment: "fig4", Rows: pair("1", 0, 50)}
	if got := idle.DieWiseSpeedup(); got != 0 {
		t.Errorf("idle global: DieWiseSpeedup = %v, want 0", got)
	}
}
