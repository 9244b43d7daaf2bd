package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestPaperTablesGolden pins the tables that only ever reach stdout and
// that build the page-mapping FTL directly (validate and the A1-A4
// sweeps), so a change to the shared die manager cannot move them
// unnoticed (refresh with go test -update).
func TestPaperTablesGolden(t *testing.T) {
	const seed = 42
	var b strings.Builder
	v, err := Validate(ValidateConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "validate\n%s", v.Table())
	for _, sc := range v.Scaling {
		fmt.Fprintf(&b, "%d dies: %.0f IOPS\n", sc.Dies, sc.IOPS)
	}
	for _, f := range []func(int64) (*AblationResult, error){
		AblationGCPolicy, AblationDFTLCMT, AblationFasterLog, AblationOverProvision,
	} {
		res, err := f(seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "\nablation: %s\n%s", res.Name, res.Table())
	}
	checkGolden(t, "paper_tables.txt", []byte(b.String()))
}
