package health

import "testing"

func TestSnapshotWearMath(t *testing.T) {
	s := &Snapshot{Dies: []DieHealth{
		{Die: 0, Blocks: []int{1, 2, 3, 4}, BadBlocks: 0},
		{Die: 1, Blocks: []int{5, -1, 7, 8}, BadBlocks: 1},
	}}
	s.Finalize(nil)
	if s.Wear.Min != 1 || s.Wear.Max != 8 || s.Wear.Spread != 7 {
		t.Errorf("wear min/max/spread = %d/%d/%d", s.Wear.Min, s.Wear.Max, s.Wear.Spread)
	}
	if s.Wear.TotalBlocks != 7 || s.Wear.BadBlocks != 1 {
		t.Errorf("block counts = %d good, %d bad", s.Wear.TotalBlocks, s.Wear.BadBlocks)
	}
	if s.Wear.P50 != 4 {
		t.Errorf("p50 = %d, want 4", s.Wear.P50)
	}
	// Histogram: power-of-two buckets 0,1,2,4,8; the bad block is
	// excluded, each good block lands in exactly one bucket.
	total := 0
	for _, d := range s.Dies {
		for _, b := range d.Hist {
			total += b.Count
		}
	}
	if total != 7 {
		t.Errorf("histogram counts %d blocks, want 7", total)
	}
}
