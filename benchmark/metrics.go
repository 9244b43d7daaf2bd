package main

import (
	"slices"
	"strings"

	"noftl/internal/ioreq"
	"noftl/internal/region"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the
// same names; the self-check test keeps the two in step.
type metricDef struct{ name, unit string }

// metricValue is one reported number.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// endToEndDefs are the numbers a user of the system sees, reported by
// every workload. host_* is wall time and memory of the simulator on
// the host; sim_* is simulated time and repeats exactly for a fixed seed
// and run length.
//
// Latency is reported as the mean and the mean of the slowest 1% of
// operations rather than as median and p99: simulated latencies take
// few distinct values (a page program is always 223.12 us), so a
// percentile is a step function that either cannot move or jumps, while
// the two means move with every change and still rest on >= 10 samples
// (minTailSamples). The exact p50/p90/p99/p99.9 are printed as detail.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"host_us_per_op", "us/op"},
	{"host_allocs_per_op", "allocs/op"},
	{"host_bytes_per_op", "B/op"},
	{"host_live_heap_mb", "MiB"},
	{"sim_ops_per_s", "op/s"},
	{"sim_lat_mean_us", "us"},
	{"sim_lat_slowest1pct_us", "us"},
	{"sim_flash_bytes_per_op", "B/op"},
	{"sim_erases_per_kop", "erases/kop"},
}

// counterDefs are the per-layer counters of the traced run (layer =
// package name). A layer a workload does not use reports 0.
var counterDefs = []metricDef{
	{"sim.wall_s_per_sim_s", "s/s"},
	{"sim.cpu_s_per_sim_s", "s/s"},
	{"sim.flash_cmds_per_wall_s", "1/s"},
	{"sim.procs_alive", "count"},
	{"flash.reads_per_op", "1/op"},
	{"flash.programs_per_op", "1/op"},
	{"flash.die_util_mean", "fraction"},
	{"flash.die_util_max", "fraction"},
	{"flash.channel_util", "fraction"},
	{"sched.cmds_per_op", "1/op"},
	{"sched.wait_us.read", "us"},
	{"sched.wait_us.wal", "us"},
	{"sched.wait_us.program", "us"},
	{"sched.wait_us.prefetch", "us"},
	{"sched.wait_us.gc", "us"},
	{"sched.erase_suspends_per_kop", "1/kop"},
	{"sched.deadline_promotions", "count"},
	{"ftl.wa", "ratio"},
	{"ftl.gc_copies_per_op", "1/op"},
	{"ftl.valid_copy_ratio", "fraction"},
	{"region.data_occupancy_end", "fraction"},
	{"region.log_free_blocks_min", "count"},
	{"storage.buffer_hit_rate", "fraction"},
	{"storage.evictions_per_op", "1/op"},
	{"storage.sync_writes_per_op", "1/op"},
	{"storage.async_writes_per_op", "1/op"},
	{"storage.prefetch_hit_rate", "fraction"},
	{"storage.wal_bytes_per_op", "B/op"},
	{"storage.wal_appends_per_op", "1/op"},
	{"workload.retries_per_kop", "1/kop"},
	{"workload.oltp_tps", "tx/s"},
	{"workload.oltp_commit_p99_us", "us"},
	{"workload.scan_rows_per_s", "rows/s"},
	{"serve.admitted_per_s", "1/s"},
	{"serve.shed_ratio", "fraction"},
	{"serve.deprioritized_ratio", "fraction"},
	{"serve.deadline_miss_ratio", "fraction"},
	{"serve.paying_p99_us", "us"},
	{"serve.batch_p99_us", "us"},
	{"blockdev.faster_us_per_op", "us/op"},
	{"blockdev.faster_lat_p99_us", "us"},
	{"blockdev.faster_erases_per_kop", "erases/kop"},
	{"blockdev.noftl_vs_faster_erase_ratio", "ratio"},
	{"stage.engine.us_per_op", "us/op"},
	{"stage.buffer.us_per_op", "us/op"},
	{"stage.wal.us_per_op", "us/op"},
	{"stage.volume.us_per_op", "us/op"},
	{"stage.sched_queue.us_per_op", "us/op"},
	{"stage.die.us_per_op", "us/op"},
	{"telemetry.trace_overhead_ratio", "ratio"},
	{"telemetry.trace_allocs_per_op_delta", "allocs/op"},
	{"telemetry.sim_perturbation", "count"},
}

// perLayerDefs is every per-layer metric: two per host probe, then the
// traced run's counters.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, p := range probes {
		defs = append(defs, metricDef{p.name + ".ns_per_op", "ns/op"},
			metricDef{p.name + ".allocs_per_op", "allocs/op"})
	}
	return append(defs, counterDefs...)
}

// perOp divides by the window's successful operations.
func (m *measured) perOp(v float64) float64 {
	if n := m.rec.ops(); n > 0 {
		return v / float64(n)
	}
	return 0
}

// simSeconds is the measure window in simulated seconds.
func (m *measured) simSeconds() float64 { return (m.to.simNow - m.from.simNow).Seconds() }

// latency summarizes the primary op's latencies, once: sorting millions
// of samples is not free.
func (m *measured) latency() latencySummary {
	if m.lat == nil {
		s := summarize(m.rec.lat)
		m.lat = &s
	}
	return *m.lat
}

// endToEnd computes the end-to-end metrics in endToEndDefs order.
func (m *measured) endToEnd() []metricValue {
	lat := m.latency()
	d0, d1 := m.from.snap.Device, m.to.snap.Device
	flashBytes := float64(d1.ProgramBytes-d0.ProgramBytes) +
		float64(d1.Copybacks-d0.Copybacks)*float64(m.geo.PageSize)
	values := []float64{
		median(m.setupS),
		median(m.sliceUs),
		m.perOp(float64(m.to.mem.Mallocs - m.from.mem.Mallocs)),
		m.perOp(float64(m.to.mem.TotalAlloc - m.from.mem.TotalAlloc)),
		float64(m.liveHeap) / (1 << 20),
		float64(m.rec.ops()) / m.simSeconds(),
		lat.MeanUs,
		lat.tailMeanUs(99),
		m.perOp(flashBytes),
		m.perOp(float64(d1.Erases-d0.Erases) * 1000),
	}
	out := make([]metricValue, len(endToEndDefs))
	for i, d := range endToEndDefs {
		out[i] = metricValue{d.name, d.unit, values[i]}
	}
	return out
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters computes the traced run's per-layer counters by name.
func (m *measured) counters() map[string]float64 {
	c := map[string]float64{}
	simS := m.simSeconds()
	wallS := float64(m.to.wallNs-m.from.wallNs) / 1e9
	window := m.to.simNow - m.from.simNow

	c["sim.wall_s_per_sim_s"] = ratio(wallS, simS)
	c["sim.cpu_s_per_sim_s"] = ratio(m.to.cpuS-m.from.cpuS, simS)
	c["sim.procs_alive"] = float64(m.layers.procsAlive)

	d0, d1 := m.from.snap.Device, m.to.snap.Device
	cmds := float64((d1.Reads - d0.Reads) + (d1.Programs - d0.Programs) +
		(d1.Erases - d0.Erases) + (d1.Copybacks - d0.Copybacks))
	c["sim.flash_cmds_per_wall_s"] = ratio(cmds, wallS)
	c["flash.reads_per_op"] = m.perOp(float64(d1.Reads - d0.Reads))
	c["flash.programs_per_op"] = m.perOp(float64(d1.Programs - d0.Programs))
	var busySum, busyMax sim.Time
	for i := range d1.DieBusy {
		b := d1.DieBusy[i] - d0.DieBusy[i]
		busySum += b
		busyMax = max(busyMax, b)
	}
	c["flash.die_util_mean"] = ratio(float64(busySum), float64(window)*float64(len(d1.DieBusy)))
	c["flash.die_util_max"] = ratio(float64(busyMax), float64(window))
	var chSum sim.Time
	for i := range d1.ChannelBusy {
		chSum += d1.ChannelBusy[i] - d0.ChannelBusy[i]
	}
	c["flash.channel_util"] = ratio(float64(chSum), float64(window)*float64(len(d1.ChannelBusy)))

	s0, s1 := m.from.snap.Sched, m.to.snap.Sched
	c["sched.cmds_per_op"] = m.perOp(float64(s1.TotalScheduled() - s0.TotalScheduled()))
	for cl := sched.Class(0); cl < sched.NumClasses; cl++ {
		wait := float64(s1.QueueWait[cl]-s0.QueueWait[cl]) / float64(sim.Microsecond)
		c["sched.wait_us."+cl.String()] = ratio(wait, float64(s1.Scheduled[cl]-s0.Scheduled[cl]))
	}
	c["sched.erase_suspends_per_kop"] = m.perOp(float64(s1.EraseSuspends-s0.EraseSuspends) * 1000)
	c["sched.deadline_promotions"] = float64(s1.DeadlinePromotions - s0.DeadlinePromotions)

	f0, f1 := m.from.snap.FTL, m.to.snap.FTL
	host := float64(f1.HostWrites - f0.HostWrites)
	gcPages := float64(f1.GCPages() - f0.GCPages())
	c["ftl.wa"] = ratio(host+gcPages+float64(f1.MapWrites-f0.MapWrites), host)
	c["ftl.gc_copies_per_op"] = m.perOp(gcPages)
	c["ftl.valid_copy_ratio"] = ratio(gcPages, float64(f1.Erases-f0.Erases)*float64(m.geo.PagesPerBlock))

	for _, r := range m.to.snap.Regions {
		if r.Mapping == region.PageMapped {
			c["region.data_occupancy_end"] = r.Occupancy()
		}
	}
	c["region.log_free_blocks_min"] = float64(m.layers.logFreeMin)

	b := m.to.snap.Buffer.Sub(m.from.snap.Buffer)
	c["storage.buffer_hit_rate"] = b.HitRate()
	c["storage.evictions_per_op"] = m.perOp(float64(b.Evictions))
	c["storage.sync_writes_per_op"] = m.perOp(float64(b.SyncWrites))
	c["storage.async_writes_per_op"] = m.perOp(float64(b.AsyncWrites))
	c["storage.prefetch_hit_rate"] = ratio(float64(b.PrefetchHits), float64(b.Prefetches))
	c["storage.wal_bytes_per_op"] = m.perOp(float64(m.to.snap.WALBytes - m.from.snap.WALBytes))
	c["storage.wal_appends_per_op"] = m.perOp(float64(m.to.snap.WALAppends - m.from.snap.WALAppends))

	c["workload.retries_per_kop"] = m.perOp(float64(m.rec.failed) * 1000)
	for name, v := range m.layers.extra {
		c[name] = v
	}

	a := &m.spanStats
	c["stage.engine.us_per_op"] = a.usPerSpan(ioreq.StageEngine)
	c["stage.buffer.us_per_op"] = a.usPerSpan(ioreq.StageBuffer)
	c["stage.wal.us_per_op"] = a.usPerSpan(ioreq.StageWAL)
	c["stage.volume.us_per_op"] = a.usPerSpan(ioreq.StageVolume)
	c["stage.sched_queue.us_per_op"] = a.usPerSpan(ioreq.StageSchedQ)
	c["stage.die.us_per_op"] = a.usPerSpan(ioreq.StageDie)
	return c
}

// tracePair adds the telemetry.* metrics: what the observability stack
// costs on the host, and proof that it does not move simulated results.
func tracePair(c map[string]float64, untraced, traced []metricValue) {
	get := func(vs []metricValue, name string) float64 {
		for _, v := range vs {
			if v.Name == name {
				return v.Value
			}
		}
		return 0
	}
	c["telemetry.trace_overhead_ratio"] = ratio(get(traced, "host_us_per_op"), get(untraced, "host_us_per_op"))
	c["telemetry.trace_allocs_per_op_delta"] = get(traced, "host_allocs_per_op") - get(untraced, "host_allocs_per_op")
	differ := 0
	for _, d := range endToEndDefs {
		if strings.HasPrefix(d.name, "sim_") && get(traced, d.name) != get(untraced, d.name) {
			differ++
		}
	}
	c["telemetry.sim_perturbation"] = float64(differ)
}

// detail are supporting numbers printed beside the metrics.
func (m *measured) detail() []metricValue {
	sorted := slices.Clone(m.sliceUs)
	slices.Sort(sorted)
	lat := m.latency()
	return []metricValue{
		{"host_us_per_op.p90_slice", "us/op", nearestRank(sorted, 90)},
		{"host_us_per_op.slices", "count", float64(len(sorted))},
		{"sim_lat.samples", "count", float64(len(lat.sorted))},
		{"sim_lat.highest_supported_percentile", "%", highestSupported(len(lat.sorted))},
		{"sim_lat.p50", "us", lat.us(50)},
		{"sim_lat.p90", "us", lat.us(90)},
		{"sim_lat.p95", "us", lat.us(95)},
		{"sim_lat.p99", "us", lat.us(99)},
		{"sim_lat.p99.9", "us", lat.us(99.9)},
		{"sim_lat.max", "us", lat.us(100)},
		{"measure_window.sim_s", "s", m.simSeconds()},
		{"measure_window.wall_s", "s", float64(m.to.wallNs-m.from.wallNs) / 1e9},
	}
}
