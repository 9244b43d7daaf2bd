package noftl

import (
	"noftl/internal/system"
	"noftl/internal/telemetry/blame"
)

// --- latency root-cause (blame) engine ---

type (
	// BlameConfig tunes the latency root-cause engine: stream-tag
	// display names for tables and flame stacks, and how many of the
	// slowest spans its reports keep.
	BlameConfig = blame.Config
	// BlameReport is the analyzed outcome: the victim×culprit
	// interference matrix, per-span blame decompositions, and the
	// table/folded-stack/speedscope/JSON exporters.
	BlameReport = blame.Report
	// BlameCell is one interference-matrix entry — the total wait one
	// victim (tag, class) spent blocked behind one culprit (tag, class,
	// die, kind).
	BlameCell = blame.Cell
	// BlameVictim identifies the waiting side of a matrix cell.
	BlameVictim = blame.Victim
	// BlameCulprit identifies the blocking side of a matrix cell.
	BlameCulprit = blame.Culprit
	// BlameKind classifies how a culprit blocked its victim (plain
	// queueing, an erase with its suspension windows, or a same-block
	// program-order hazard).
	BlameKind = blame.Kind
	// BlameShare is one culprit's slice of a span's blamed wait.
	BlameShare = blame.Share
	// BlameClassShare is one culprit class's slice of an aggregated
	// blamed wait (tenant-level "who caused my p99" rows).
	BlameClassShare = blame.ClassShare
	// BlameSpan is one transaction's queue-wait decomposition: the
	// span-recorded queue wait, the part blamed on specific culprit
	// commands, and the per-culprit shares.
	BlameSpan = blame.SpanBlame
)

// Blocking kinds of a BlameCulprit.
const (
	// BlameQueue: the culprit simply occupied the die ahead of the victim.
	BlameQueue = blame.KindQueue
	// BlameErase: the culprit was an erase, its suspension windows included.
	BlameErase = blame.KindErase
	// BlameHazard: victim and culprit program into the same flash block,
	// so NAND program-order forced arrival-order service.
	BlameHazard = blame.KindHazard
)

// WithBlame attaches the latency root-cause engine to a facade-built
// system: the builder owns a command log on the scheduler's trace hook
// and forces telemetry span retention, so System.Blame() can join the
// per-die command timeline with the retained request spans after a run.
// Implies a priority scheduler when no scheduler option is given.
func WithBlame(cfg BlameConfig) SystemOption { return system.WithBlame(cfg) }
