package noftl

import "noftl/internal/telemetry/blame"

// BlameConfig tunes the latency root-cause engine (ExperimentParams.Blame):
// stream-tag display names for tables and flame stacks, and how many of
// the slowest spans its reports keep. The engine joins the per-die
// command timeline with the retained request spans after a run; the
// report (victim×culprit interference matrix, per-span blame
// decompositions, table/folded-stack/JSON exporters) comes
// back on the experiment's result.
type BlameConfig = blame.Config
