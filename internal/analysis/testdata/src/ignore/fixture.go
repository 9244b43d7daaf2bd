// Fixture for the suppression mechanism: every function violates
// determinism the same way, and what varies is the //noftl:ignore
// directive. expect.txt shows which findings survive, and which
// directives are findings themselves. The fixture runs determinism and
// nilrecv.
package ignore

import "time"

// Paced carries a well-formed standalone directive: it silences exactly
// the one determinism finding on the next line.
func Paced() time.Time {
	//noftl:ignore determinism fixture: sanctioned wall-clock use
	return time.Now()
}

// Trailing carries the directive on the flagged line itself.
func Trailing() time.Time {
	return time.Now() //noftl:ignore determinism fixture: trailing form works too
}

// Bare omits the reason: the finding stays AND the directive itself is
// reported under the "ignore" pseudo-analyzer.
func Bare() time.Time {
	//noftl:ignore determinism
	return time.Now()
}

// Typo names an analyzer that doesn't exist: nothing is suppressed and
// the typo is reported, so a misspelling can't silently eat findings.
func Typo() time.Time {
	//noftl:ignore determinsm misspelled names must not suppress anything
	return time.Now()
}

// Naked has no fields at all.
func Naked() time.Time {
	//noftl:ignore
	return time.Now()
}

// TwoAbove's directive is two lines above its finding: it reaches only
// the line below it, so the finding stays and the directive is stale.
func TwoAbove() time.Time {
	//noftl:ignore determinism fixture: too far from its finding

	return time.Now()
}

// Other's directive names another analyzer: the determinism finding
// stays, and nilrecv, which ran, found nothing there to silence.
func Other() time.Time {
	//noftl:ignore nilrecv fixture: names the wrong analyzer
	return time.Now()
}

// Stale's directive silences nothing: the exception it recorded is gone.
func Stale() int {
	//noftl:ignore determinism fixture: the wall-clock read was removed
	return 0
}

// NotRun's directive names an analyzer that did not run, so the pass
// cannot judge it.
func NotRun() int {
	//noftl:ignore metricname fixture: metricname does not run here
	return 0
}
