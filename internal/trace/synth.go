package trace

import "math/rand"

// Pattern is an FIO-style access pattern, the uFLIP micro-benchmark
// vocabulary Synthetic generates.
type Pattern int

// Synthetic access patterns.
const (
	SeqRead Pattern = iota
	SeqWrite
	RandRead
	RandWrite
	RandMixed70 // 70% reads / 30% writes
	HotWrite    // random writes, 80% of them on the first tenth of the span
)

// String names the pattern like FIO job types.
func (p Pattern) String() string {
	switch p {
	case SeqRead:
		return "seqread"
	case SeqWrite:
		return "seqwrite"
	case RandRead:
		return "randread"
	case RandWrite:
		return "randwrite"
	case RandMixed70:
		return "randrw70"
	case HotWrite:
		return "hotwrite"
	default:
		return "unknown"
	}
}

// Synthetic generates ops page operations of pattern p on the first span
// pages: sequential patterns start at page 0 and wrap at span, random
// ones draw from seed.
func Synthetic(p Pattern, ops int, span int64, pageSize int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{PageSize: pageSize, Ops: make([]Op, ops)}
	seq := int64(0)
	for i := range t.Ops {
		op := Op{Kind: OpWrite}
		switch p {
		case SeqRead:
			op = Op{Kind: OpRead, LPN: seq}
		case SeqWrite:
			op.LPN = seq
		case RandRead:
			op = Op{Kind: OpRead, LPN: rng.Int63n(span)}
		case RandWrite:
			op.LPN = rng.Int63n(span)
		case RandMixed70:
			op.LPN = rng.Int63n(span)
			if rng.Intn(100) < 70 {
				op.Kind = OpRead
			}
		case HotWrite:
			op.LPN = rng.Int63n(span)
			if rng.Float64() < 0.8 {
				op.LPN = rng.Int63n(span/10 + 1)
			}
		}
		seq = (seq + 1) % span
		t.Ops[i] = op
	}
	return t
}
