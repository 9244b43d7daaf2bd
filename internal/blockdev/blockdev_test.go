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
	if d.Name() != "blockdev(pagemap)" {
		t.Errorf("Name = %q", d.Name())
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
	for i := 0; i < queueDepth+8; i++ {
		lba := int64(i)
		k.Go("io", func(p *sim.Proc) {
			if err := d.Write(sim.ProcWaiter{P: p}, lba, make([]byte, 512)); err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	// Every writer starts at once; inside the first command overhead the
	// queue holds exactly its depth and the rest wait for a slot.
	k.RunFor(cmdOverhead / 2)
	if got := d.queue.InUse(); got != queueDepth {
		t.Errorf("in flight %d, want the queue depth %d", got, queueDepth)
	}
	k.Run()
	if d.queue.InUse() != 0 {
		t.Errorf("queue not drained: %d", d.queue.InUse())
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
	if got := d.FTLStats().HostWrites; got != 10 {
		t.Errorf("HostWrites = %d, want 10", got)
	}
}
