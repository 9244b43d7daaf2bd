package blockdev

import (
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
)

func newTestDevice(t *testing.T, k *sim.Kernel) *Device {
	t.Helper()
	dev := flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
			BlocksPerPlane: 32, PagesPerBlock: 8, PageSize: 512, OOBSize: 16,
		},
		Cell: nand.SLC,
		Nand: nand.Options{StoreData: true},
	})
	f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return New(f, Config{Kernel: k})
}

func TestBlockdevRoundTrip(t *testing.T) {
	d := newTestDevice(t, nil)
	w := &sim.ClockWaiter{}
	data := make([]byte, 512)
	data[0] = 0xEE
	if err := d.Write(w, 3, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := d.Read(w, 3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE {
		t.Error("round trip corrupted data")
	}
	if d.Pages() == 0 {
		t.Error("Pages = 0")
	}
}

func TestBlockdevAddsProtocolOverhead(t *testing.T) {
	d := newTestDevice(t, nil)
	w := &sim.ClockWaiter{}
	start := w.Now()
	if err := d.Write(w, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	elapsed := w.Now() - start
	// Program 200µs + transfer + cmd overheads + blockdev 10µs.
	if elapsed < 210*sim.Microsecond {
		t.Errorf("write latency %v too small to include protocol overhead", elapsed)
	}
}

func TestBlockdevQueueDepthLimitsConcurrency(t *testing.T) {
	k := sim.New()
	d := newTestDevice(t, k)
	var done []sim.Time // writer completions, each releasing its slot
	for i := 0; i < queueDepth+8; i++ {
		lba := int64(i)
		k.Go("io", func(p *sim.Proc) {
			if err := d.Write(sim.ProcWaiter{P: p}, lba, make([]byte, 512)); err != nil {
				t.Errorf("write: %v", err)
			}
			done = append(done, p.Now())
		})
	}
	// Every writer starts at once; inside the first command overhead the
	// queue holds exactly its depth and the rest wait for a slot, so a
	// probe asking then is granted the ninth slot released.
	k.RunFor(cmdOverhead / 2)
	granted := sim.Time(-1)
	k.Go("probe", func(p *sim.Proc) {
		d.queue.Acquire(p)
		granted = p.Now()
		d.queue.Release()
	})
	k.Run()
	if len(done) != queueDepth+8 {
		t.Fatalf("%d of %d writers finished", len(done), queueDepth+8)
	}
	if granted != done[8] {
		t.Errorf("probe granted at %v, want the ninth completion at %v", granted, done[8])
	}
}

func TestBlockdevFTLStats(t *testing.T) {
	d := newTestDevice(t, nil)
	w := &sim.ClockWaiter{}
	for i := int64(0); i < 10; i++ {
		if err := d.Write(w, i, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.ftl.Stats().HostWrites; got != 10 {
		t.Errorf("HostWrites = %d, want 10", got)
	}
}
