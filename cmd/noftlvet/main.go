// Command noftlvet runs the repo's domain-specific static-analysis
// suite (internal/analysis): five analyzers that enforce the sim's
// cross-layer invariants — byte-determinism of benches and exports, the
// ioreq class discipline, the telemetry nil-receiver contract, the
// layer.metric registry naming scheme, and kernel-resident polling — at
// compile time, the way go vet catches printf misuse.
//
// Usage:
//
//	noftlvet [-list] [-tests=true] [packages]
//
// Packages are directory patterns relative to the current module
// ("./...", "./internal/storage", ...); the default is "./...".
// Diagnostics print as "file:line: analyzer: message". Deliberate
// violations are silenced in place with
//
//	//noftl:ignore <analyzer> <reason>
//
// on the flagged line or the line above it; the reason is mandatory.
// Exit status: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"noftl/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	tests := flag.Bool("tests", true, "analyze _test.go files too")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *tests
	diags, err := analysis.Run(loader, cwd, patterns, analysis.All())
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		if rel, rerr := filepath.Rel(cwd, d.Pos.Filename); rerr == nil {
			d.Pos.Filename = rel
		}
		fmt.Println(d.String())
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "noftlvet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "noftlvet:", err)
	os.Exit(2)
}
