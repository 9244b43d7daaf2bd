package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestPaperTablesGolden pins the serial page-level experiments, whose
// tables only ever reach stdout: validate, the A1-A4 sweeps, the §3
// latency study and Figure 3. Validate and the sweeps build the
// page-mapping FTL directly, so a change to the shared die manager
// cannot move them unnoticed; all four replay through trace.Replay
// (refresh with go test -update).
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
	lat, err := Latency(LatencyConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "\nlatency\n%s", lat.Table())
	fig3, err := Figure3(Fig3Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "\nfig3\n%s", fig3.Table())
	checkGolden(t, "paper_tables.txt", []byte(b.String()))
}
