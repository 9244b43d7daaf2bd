// Command benchdiff explains how two noftlbench -json reports differ,
// so a BENCH_*.json gate that fails its byte comparison says which rows
// and fields moved.
//
// Rows are matched by (experiment, workload, stack, mode). For each
// matched row every JSON field that differs is listed with its base and
// new value and, for numbers, the delta; map fields are compared entry
// by entry (blame_shares/<class>, tenant_p99_us/<tenant>). Rows present
// in only one report are listed as added or dropped.
//
// Usage:
//
//	benchdiff baseline.json new.json
//
// Exit status: 0 the reports match, 1 a matched row differs or a row was
// added or dropped, 2 usage or malformed-input errors, 3 an input file
// does not exist (a missing baseline is "nothing to compare against
// yet", not a difference — CI treats it differently).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"noftl/internal/stats"
)

// Exit codes.
const (
	exitOK      = 0
	exitDiffer  = 1
	exitUsage   = 2
	exitMissing = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff baseline.json new.json")
		return exitUsage
	}

	for i, role := range []string{"baseline", "new"} {
		if _, err := os.Stat(fs.Arg(i)); os.IsNotExist(err) {
			fmt.Fprintf(stderr, "benchdiff: %s file %s does not exist", role, fs.Arg(i))
			if i == 0 {
				fmt.Fprintf(stderr, " — nothing to diff against; create it with `noftlbench -json %s`", fs.Arg(0))
			}
			fmt.Fprintln(stderr)
			return exitMissing
		}
	}

	base, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return exitUsage
	}
	next, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return exitUsage
	}

	baseRows := make(map[string]row, len(base))
	for _, r := range base {
		baseRows[r.key()] = r
	}
	diffs := 0
	t := stats.NewTable("row", "field", "base", "new", "delta")
	for _, nr := range next {
		k := nr.key()
		br, ok := baseRows[k]
		if !ok {
			t.Row(k, "new row", "-", "-", "-")
			diffs++
			continue
		}
		delete(baseRows, k)
		names := make([]string, 0, len(br)+len(nr))
		for f := range br {
			names = append(names, f)
		}
		for f := range nr {
			if _, ok := br[f]; !ok {
				names = append(names, f)
			}
		}
		sort.Strings(names)
		for _, f := range names {
			if b, n := br[f], nr[f]; b != n {
				t.Row(k, f, show(b), show(n), delta(b, n))
				diffs++
			}
		}
	}
	dropped := make([]string, 0, len(baseRows))
	for k := range baseRows {
		dropped = append(dropped, k)
	}
	sort.Strings(dropped)
	for _, k := range dropped {
		t.Row(k, "row dropped", "-", "-", "-")
		diffs++
	}

	if diffs == 0 {
		fmt.Fprintln(stdout, "reports match")
		return exitOK
	}
	fmt.Fprintf(stdout, "%s\n%d difference(s)\n", t.String(), diffs)
	return exitDiffer
}

// row is one report row's JSON fields, map entries flattened to
// "field/key"; an omitted field is absent.
type row map[string]any

func (r row) key() string {
	k := r.str("experiment") + "/" + r.str("workload") + "/" + r.str("stack")
	if m := r.str("mode"); m != "" {
		k += "/" + m
	}
	return k
}

func (r row) str(field string) string {
	s, _ := r[field].(string)
	return s
}

func load(path string) ([]row, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct{ Results []map[string]any }
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rows := make([]row, len(rep.Results))
	for i, res := range rep.Results {
		rows[i] = row{}
		for f, v := range res {
			m, ok := v.(map[string]any)
			if !ok {
				rows[i][f] = v
				continue
			}
			for e, ev := range m {
				rows[i][f+"/"+e] = ev
			}
		}
	}
	return rows, nil
}

// show renders a field value ("-" when absent; numbers exactly).
func show(v any) string {
	switch v := v.(type) {
	case nil:
		return "-"
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// delta is new minus base when both are numbers.
func delta(b, n any) string {
	bf, ok1 := b.(float64)
	nf, ok2 := n.(float64)
	if !ok1 || !ok2 {
		return "-"
	}
	return fmt.Sprintf("%+g", nf-bf)
}
