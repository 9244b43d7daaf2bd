package region

import (
	"encoding/binary"
	"math/rand"
	"noftl/internal/ioreq"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

func testDevice(t *testing.T, dies int, opts nand.Options) *flash.Device {
	t.Helper()
	opts.StoreData = true
	return flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels: 2, ChipsPerChannel: dies / 2, DiesPerChip: 1,
			PlanesPerDie: 2, BlocksPerPlane: 24, PagesPerBlock: 16,
			PageSize: 1024, OOBSize: 32,
		},
		Cell: nand.SLC,
		Nand: opts,
	})
}

func TestLayoutDiePartitioning(t *testing.T) {
	dev := testDevice(t, 4, nand.Options{})
	m, err := New(dev, DefaultDBLayout(1), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	log := m.Region("log")
	data := m.Region("data")
	if log == nil || data == nil {
		t.Fatal("default layout regions missing")
	}
	if len(log.Dies) != 1 || len(data.Dies) != 3 {
		t.Fatalf("die split log=%v data=%v", log.Dies, data.Dies)
	}
	seen := map[int]bool{}
	for _, r := range m.Regions() {
		for _, die := range r.Dies {
			if seen[die] {
				t.Fatalf("die %d assigned twice", die)
			}
			seen[die] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 dies assigned", len(seen))
	}
	if log.Log == nil || log.Vol != nil {
		t.Error("log region is not seq-mapped")
	}
	if data.Vol == nil || data.Log != nil {
		t.Error("data region is not page-mapped")
	}
}

func TestLayoutValidation(t *testing.T) {
	dev := testDevice(t, 4, nand.Options{})
	cases := [][]Spec{
		{}, // no regions
		{{Name: "a", Dies: 5, Mapping: PageMapped}},                                  // too many dies
		{{Name: "a", Dies: 2, Mapping: PageMapped}, {Name: "a", Mapping: SeqMapped}}, // dup name
		{{Name: "a", Mapping: PageMapped}, {Name: "b", Mapping: SeqMapped}},          // two remainders
		{{Name: "a", Dies: 2, Mapping: PageMapped}},                                  // dies left over
	}
	for i, specs := range cases {
		if _, err := New(dev, specs, nil, false); err == nil {
			t.Errorf("case %d: invalid layout accepted", i)
		}
	}
}

// TestPlacementCatalog pins where the engine's data and WAL land: the
// one page-mapped region holds the data and the one sequential region
// the WAL, whatever their names or order.
func TestPlacementCatalog(t *testing.T) {
	m, err := New(testDevice(t, 4, nand.Options{}), []Spec{
		{Name: "heap", Mapping: PageMapped},
		{Name: "wal", Dies: 1, Mapping: SeqMapped},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	data, wal, err := m.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if data.Name != "heap" || wal.Name != "wal" {
		t.Errorf("mount resolved data=%q wal=%q", data.Name, wal.Name)
	}
}

// mustNotMount builds specs (New accepts any valid layout) and checks
// that Mount refuses them with an error.
func mustNotMount(t *testing.T, name string, specs []Spec) {
	t.Helper()
	m, err := New(testDevice(t, 4, nand.Options{}), specs, nil, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, _, err := m.Mount(); err == nil {
		t.Errorf("%s: mount accepted", name)
	}
}

// TestMountRejectsSplitDataClasses checks that the engine's data cannot
// be split over two page-mapped regions.
func TestMountRejectsSplitDataClasses(t *testing.T) {
	mustNotMount(t, "two page-mapped regions", []Spec{
		{Name: "a", Dies: 2, Mapping: PageMapped},
		{Name: "b", Mapping: PageMapped},
	})
}

// TestMount checks that Mount refuses the other layouts that lack
// exactly one page-mapped and one sequential region.
func TestMount(t *testing.T) {
	mustNotMount(t, "one page-mapped region", []Spec{{Name: "data", Mapping: PageMapped}})
	mustNotMount(t, "two sequential regions", []Spec{
		{Name: "log", Dies: 1, Mapping: SeqMapped},
		{Name: "log2", Dies: 1, Mapping: SeqMapped},
		{Name: "data", Mapping: PageMapped},
	})
}

// TestRegionIsolationAndRebuild writes distinct content through both
// regions, restarts (Rebuild), and checks each region recovered its own
// state from its own dies.
func TestRegionIsolationAndRebuild(t *testing.T) {
	dev := testDevice(t, 4, nand.Options{})
	layout := DefaultDBLayout(1)
	m, err := New(dev, layout, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	data := m.Volume("data")
	log := m.Log("log")

	page := make([]byte, 1024)
	for lpn := int64(0); lpn < 50; lpn++ {
		binary.LittleEndian.PutUint64(page, uint64(lpn)^0xD0D0)
		if err := data.Write(ioreq.Plain(w), lpn, page); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i++ {
		binary.LittleEndian.PutUint64(page, uint64(i)^0x7070)
		if _, err := log.Append(ioreq.Plain(w), page); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Truncate(ioreq.Plain(w), 16); err != nil {
		t.Fatal(err)
	}

	m2, err := Rebuild(dev, layout, nil, false, ioreq.Plain(w))
	if err != nil {
		t.Fatal(err)
	}
	data2, log2 := m2.Volume("data"), m2.Log("log")
	buf := make([]byte, 1024)
	for lpn := int64(0); lpn < 50; lpn++ {
		if err := data2.Read(ioreq.Plain(w), lpn, buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != uint64(lpn)^0xD0D0 {
			t.Fatalf("data page %d rebuilt as %x", lpn, got)
		}
	}
	head, next := log2.Bounds()
	if head != 16 || next != 40 {
		t.Fatalf("log window [%d,%d) after rebuild, want [16,40)", head, next)
	}
	for i := head; i < next; i++ {
		if err := log2.ReadAt(ioreq.Plain(w), i, buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != uint64(i)^0x7070 {
			t.Fatalf("log page %d rebuilt as %x", i, got)
		}
	}
}

// TestPerRegionOverProvision pins the claim in the package comment:
// each region runs its own over-provisioning. Two page-mapped regions
// share one device — 7% OP beside 20% OP — and take the random-overwrite
// load of the ftl package's TestGCPolicies. The two volumes must export
// different capacities and do different amounts of GC copy work, and
// the numbers must follow the spec, not the dies: swapping the two
// specs swaps them.
func TestPerRegionOverProvision(t *testing.T) {
	tight := Spec{Dies: 2, Mapping: PageMapped, OverProvision: 0.07}
	roomy := Spec{Dies: 2, Mapping: PageMapped, OverProvision: 0.20}
	type outcome struct{ pagesPerDie, copybacks int64 }
	run := func(first, second Spec) (a, b outcome) {
		first.Name, second.Name = "first", "second"
		// 256 blocks per die: the frontier + low-water block reserve
		// (14 blocks) stays under 7%, so OverProvision decides capacity.
		dev := flash.New(flash.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1,
				PlanesPerDie: 2, BlocksPerPlane: 128, PagesPerBlock: 8,
				PageSize: 256, OOBSize: 16,
			},
			Cell: nand.SLC,
			Nand: nand.Options{StoreData: true},
		})
		m, err := New(dev, []Spec{first, second}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		drive := func(name string) outcome {
			v := m.Volume(name)
			w := &sim.ClockWaiter{}
			n := v.LogicalPages()
			rng := rand.New(rand.NewSource(2))
			page := make([]byte, dev.Geometry().PageSize)
			for i := 0; i < int(n)*4; i++ {
				binary.LittleEndian.PutUint64(page, uint64(i))
				if err := v.Write(ioreq.Plain(w), rng.Int63n(n), page); err != nil {
					t.Fatalf("%s write %d: %v", name, i, err)
				}
			}
			return outcome{n / int64(v.Regions()), v.Stats().GCCopybacks}
		}
		return drive("first"), drive("second")
	}
	a, b := run(tight, roomy)
	if a.pagesPerDie <= b.pagesPerDie {
		t.Errorf("7%% OP exports %d pages/die, 20%% OP %d: over-provisioning is not per region",
			a.pagesPerDie, b.pagesPerDie)
	}
	if a.copybacks == 0 || b.copybacks == 0 || a.copybacks == b.copybacks {
		t.Errorf("GC copybacks %d vs %d: want both regions collecting, differently", a.copybacks, b.copybacks)
	}
	if sb, sa := run(roomy, tight); sa != a || sb != b {
		t.Errorf("swapped specs: tight %+v roomy %+v, want %+v and %+v", sa, sb, a, b)
	}
}
