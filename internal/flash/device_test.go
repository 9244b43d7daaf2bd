package flash

import (
	"bytes"
	"errors"
	"testing"

	"noftl/internal/nand"
	"noftl/internal/sim"
)

func smallConfig() Config {
	return Config{
		Geometry: nand.Geometry{
			Channels:        2,
			ChipsPerChannel: 2,
			DiesPerChip:     1,
			PlanesPerDie:    1,
			BlocksPerPlane:  16,
			PagesPerBlock:   8,
			PageSize:        1024,
			OOBSize:         32,
		},
		Cell:        nand.SLC,
		ChannelMBps: 100, // (1024+32)B at 100MB/s = 10.56µs per page transfer
		Nand:        nand.Options{StoreData: true},
	}
}

func TestIdentify(t *testing.T) {
	d := New(smallConfig())
	id := d.Identify()
	if id.Geometry.Dies() != 4 {
		t.Errorf("Dies = %d, want 4", id.Geometry.Dies())
	}
	if id.Timing != nand.SLC.Timing() {
		t.Errorf("Timing = %+v, want SLC defaults", id.Timing)
	}
	wantXfer := sim.Time((1024 + 32) * 1000 / 100)
	if id.TransferPage != wantXfer {
		t.Errorf("TransferPage = %v, want %v", id.TransferPage, wantXfer)
	}
	if id.Endurance != nand.SLC.Endurance() {
		t.Errorf("Endurance = %d, want SLC default", id.Endurance)
	}
}

func TestReadLatencyModel(t *testing.T) {
	d := New(smallConfig())
	w := &sim.ClockWaiter{}
	if err := d.ProgramPage(w, 0, nil, nand.OOB{}); err != nil {
		t.Fatal(err)
	}
	w.T = 10 * sim.Millisecond // move past any residual busy time
	start := w.Now()
	if _, err := d.ReadPage(w, 0, nil); err != nil {
		t.Fatal(err)
	}
	// overhead 2µs + tR 25µs + transfer 10.56µs
	want := 2*sim.Microsecond + 25*sim.Microsecond + sim.Time(1056*1000/100)
	if got := w.Now() - start; got != want {
		t.Errorf("read latency = %v, want %v", got, want)
	}
}

func TestProgramLatencyModel(t *testing.T) {
	d := New(smallConfig())
	w := &sim.ClockWaiter{}
	start := w.Now()
	if err := d.ProgramPage(w, 0, nil, nand.OOB{}); err != nil {
		t.Fatal(err)
	}
	want := 2*sim.Microsecond + sim.Time(1056*1000/100) + 200*sim.Microsecond
	if got := w.Now() - start; got != want {
		t.Errorf("program latency = %v, want %v", got, want)
	}
}

func TestEraseLatencyModel(t *testing.T) {
	d := New(smallConfig())
	w := &sim.ClockWaiter{}
	if err := d.EraseBlock(w, 0); err != nil {
		t.Fatal(err)
	}
	want := 2*sim.Microsecond + 1500*sim.Microsecond
	if got := w.Now(); got != want {
		t.Errorf("erase latency = %v, want %v", got, want)
	}
}

func TestCopybackLatencyNoBus(t *testing.T) {
	d := New(smallConfig())
	w := &sim.ClockWaiter{}
	if err := d.ProgramPage(w, 0, nil, nand.OOB{LPN: 3}); err != nil {
		t.Fatal(err)
	}
	preCh := d.Stats().ChannelBusy[0]
	start := w.Now()
	dst := d.Geometry().FirstPage(1)
	if err := d.Copyback(w, 0, dst, nand.OOB{LPN: 3}); err != nil {
		t.Fatal(err)
	}
	want := 2*sim.Microsecond + 25*sim.Microsecond + 200*sim.Microsecond
	if got := w.Now() - start; got != want {
		t.Errorf("copyback latency = %v, want %v", got, want)
	}
	if d.Stats().ChannelBusy[0] != preCh {
		t.Error("copyback consumed channel time; it must stay inside the die")
	}
}

// TestDieParallelism verifies that operations on distinct dies overlap:
// programming N pages striped over N dies should take roughly one program
// latency, not N.
func TestDieParallelism(t *testing.T) {
	cfg := smallConfig()
	d := New(cfg)
	geo := cfg.Geometry
	k := sim.New()
	var makespan sim.Time
	done := 0
	for die := 0; die < geo.Dies(); die++ {
		p := geo.PPNOf(die, 0, 0, 0)
		k.Go("writer", func(pr *sim.Proc) {
			w := sim.ProcWaiter{P: pr}
			if err := d.ProgramPage(w, p, nil, nand.OOB{}); err != nil {
				t.Errorf("program: %v", err)
			}
			done++
			if pr.Now() > makespan {
				makespan = pr.Now()
			}
		})
	}
	k.Run()
	if done != geo.Dies() {
		t.Fatalf("done = %d, want %d", done, geo.Dies())
	}
	// 4 dies over 2 channels: two transfers serialize per channel, then
	// programs overlap. Makespan must be far below 4 sequential programs.
	serial := sim.Time(geo.Dies()) * (200*sim.Microsecond + 12*sim.Microsecond)
	if makespan >= serial/2 {
		t.Errorf("makespan %v shows no parallelism (serial would be %v)", makespan, serial)
	}
}

// TestSameDieSerializes verifies FCFS on one die.
func TestSameDieSerializes(t *testing.T) {
	d := New(smallConfig())
	k := sim.New()
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		p := nand.PPN(i) // all in block 0, die 0; program in order
		k.Go("w", func(pr *sim.Proc) {
			pr.Sleep(sim.Time(p)) // stagger arrival: page 0 first
			w := sim.ProcWaiter{P: pr}
			if err := d.ProgramPage(w, p, nil, nand.OOB{}); err != nil {
				t.Errorf("program %d: %v", p, err)
			}
			completions = append(completions, pr.Now())
		})
	}
	k.Run()
	if len(completions) != 3 {
		t.Fatal("missing completions")
	}
	for i := 1; i < 3; i++ {
		gap := completions[i] - completions[i-1]
		if gap < 200*sim.Microsecond {
			t.Errorf("completion gap %v < tPROG; die did not serialize", gap)
		}
	}
}

func TestChannelContention(t *testing.T) {
	// Two dies share channel 0 in a 1-channel config; their transfers must
	// serialize even though programs overlap.
	cfg := smallConfig()
	cfg.Geometry.Channels = 1
	cfg.Geometry.ChipsPerChannel = 2
	d := New(cfg)
	w := &sim.ClockWaiter{}
	geo := cfg.Geometry
	// Serial waiter: issue two programs to different dies back to back.
	if err := d.ProgramPage(w, geo.PPNOf(0, 0, 0, 0), nil, nand.OOB{}); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramPage(w, geo.PPNOf(1, 0, 0, 0), nil, nand.OOB{}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.ChannelBusy[0] < 2*sim.Time(1056*1000/100) {
		t.Errorf("channel busy %v, want at least two transfers", st.ChannelBusy[0])
	}
}

func TestStatsAndReset(t *testing.T) {
	d := New(smallConfig())
	w := &sim.ClockWaiter{}
	_ = d.ProgramPage(w, 0, nil, nand.OOB{})
	_, _ = d.ReadPage(w, 0, nil)
	_ = d.EraseBlock(w, 1)
	st := d.Stats()
	if st.Programs != 1 || st.Reads != 1 || st.Erases != 1 {
		t.Errorf("stats = %+v, want 1/1/1", st)
	}
	if st.ReadTime == 0 || st.ProgramTime == 0 || st.EraseTime == 0 {
		t.Error("busy times not recorded")
	}
	d.ResetStats()
	st = d.Stats()
	if st.Programs != 0 || st.Reads != 0 || st.Erases != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestDataRoundTripThroughDevice(t *testing.T) {
	d := New(smallConfig())
	w := &sim.ClockWaiter{}
	data := bytes.Repeat([]byte{0x77}, 1024)
	if err := d.ProgramPage(w, 5, nil, nand.OOB{}); err == nil {
		t.Fatal("out-of-order program should fail") // page 5 before 0..4
	}
	if err := d.ProgramPage(w, 0, data, nand.OOB{LPN: 11}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	oob, err := d.ReadPage(w, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if oob.LPN != 11 || !bytes.Equal(buf, data) {
		t.Error("device round trip corrupted data")
	}
}

func TestBadAddressRejectedWithoutTiming(t *testing.T) {
	d := New(smallConfig())
	w := &sim.ClockWaiter{}
	if _, err := d.ReadPage(w, -1, nil); !errors.Is(err, nand.ErrBadAddress) {
		t.Errorf("read: %v, want ErrBadAddress", err)
	}
	if err := d.ProgramPage(w, 1<<40, nil, nand.OOB{}); !errors.Is(err, nand.ErrBadAddress) {
		t.Errorf("program: %v, want ErrBadAddress", err)
	}
	if err := d.EraseBlock(w, -3); !errors.Is(err, nand.ErrBadAddress) {
		t.Errorf("erase: %v, want ErrBadAddress", err)
	}
	if err := d.Copyback(w, -1, 0, nand.OOB{}); !errors.Is(err, nand.ErrBadAddress) {
		t.Errorf("copyback: %v, want ErrBadAddress", err)
	}
	if w.Now() != 0 {
		t.Error("address errors must not consume simulated time")
	}
}

func TestEmulatorConfigSizing(t *testing.T) {
	for _, dies := range []int{1, 2, 4, 8, 16, 32} {
		cfg := EmulatorConfig(dies, 256, nand.SLC)
		if err := cfg.Geometry.Validate(); err != nil {
			t.Fatalf("dies=%d: %v", dies, err)
		}
		if got := cfg.Geometry.Dies(); got != dies {
			t.Errorf("dies=%d: geometry has %d dies", dies, got)
		}
		gb := float64(cfg.Geometry.TotalBytes()) / (1 << 20)
		if gb < 200 || gb > 320 {
			t.Errorf("dies=%d: capacity %.0f MB, want ≈256", dies, gb)
		}
	}
	// Tiny capacity still yields a valid geometry.
	if err := EmulatorConfig(3, 1, nand.TLC).Geometry.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEraseChunkAccounting checks the scheduler-facing erase-chunk API:
// chunks accumulate erase busy time, only the committing chunk counts an
// erase and mutates the array, and the die timeline follows the chunk
// ends so later commands queue correctly.
func TestEraseChunkAccounting(t *testing.T) {
	dev := New(smallConfig())
	w := &sim.ClockWaiter{}

	// Program a page so the erase visibly clears it.
	if err := dev.ProgramPage(w, 0, make([]byte, dev.Geometry().PageSize), nand.OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	progEnd := w.T

	w.WaitUntil(progEnd + 100*sim.Microsecond)
	if err := dev.EraseChunk(w, 0, 300*sim.Microsecond, false); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Erases; got != 0 {
		t.Fatalf("non-commit chunk counted an erase: %d", got)
	}
	w.WaitUntil(w.T + 1200*sim.Microsecond)
	if err := dev.EraseChunk(w, 0, 1200*sim.Microsecond, true); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.Erases != 1 {
		t.Fatalf("erases = %d, want 1", st.Erases)
	}
	if st.EraseTime != 1500*sim.Microsecond {
		t.Fatalf("erase time = %v, want 1.5ms", st.EraseTime)
	}
	if dev.Array().EraseCount(0) != 1 {
		t.Fatalf("array erase count = %d, want 1", dev.Array().EraseCount(0))
	}
	// The die timeline must sit at the final chunk's end: a read issued
	// earlier must start no earlier than that.
	readStart := w.T
	if _, err := dev.ReadPage(w, 8, nil); err != nil && !errors.Is(err, nand.ErrPageErased) {
		t.Fatal(err)
	}
	if w.T < readStart {
		t.Fatal("time went backwards")
	}
}

// TestOnResetHooksFire checks the hook runs on both reset paths, and
// that a second registration replaces the first: a scheduler rebuilt
// after a restart takes the hook over from the crashed one.
func TestOnResetHooksFire(t *testing.T) {
	dev := New(smallConfig())
	first, second := 0, 0
	dev.OnReset(func() { first++ })
	dev.ResetTime()
	dev.OnReset(func() { second++ })
	dev.ResetTime()
	dev.ResetStats()
	if first != 1 || second != 2 {
		t.Fatalf("first hook fired %d times, second %d; want 1 and 2", first, second)
	}
}
