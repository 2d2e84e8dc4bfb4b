package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

const mib = 1 << 20

// percentile is the q-quantile of virtual latencies, in µs. The virtual
// clock ticks in whole nanoseconds and many reads cost exactly the same
// (every cache hit of a single-page read, say), so the sample is full of
// ties. The quantile is interpolated within its tick, as for grouped
// data: if the rank q·n falls on the value v, held by f samples of which
// the first sits at rank F+1, the quantile is v - 0.5 + (q·n - F)/f ns.
// It stays within half a tick of the nearest-rank value and carries the
// share of ties below the rank, which nearest rank throws away.
func percentile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := q * float64(len(s))
	k := max(int(math.Ceil(r))-1, 0)
	v := s[k]
	below := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	ties := sort.Search(len(s), func(i int) bool { return s[i] > v }) - below
	return (float64(v) - 0.5 + (r-float64(below))/float64(ties)) / 1e3
}

// median of the values f gives over the passes; with an even count, the
// mean of the two middle values.
func median(passes []*passResult, f func(*passResult) float64) float64 {
	if len(passes) == 0 {
		return 0
	}
	v := make([]float64, len(passes))
	for i, r := range passes {
		v[i] = f(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics fills the timed run's metrics. Virtual metrics come
// from the first pass (every pass reproduces them exactly); host metrics
// are medians over the passes.
func endToEndMetrics(m map[string]metric, passes []*passResult) {
	p0 := passes[0]
	m["virt_mb_s"] = metric{ratio(float64(p0.readBytes+p0.writeBytes)/mib, float64(p0.spanNs)/1e9), "MiB/s"}
	m["virt_read_p50_us"] = metric{percentile(p0.readLat, 0.50), "us"}
	m["virt_read_p99_us"] = metric{percentile(p0.readLat, 0.99), "us"}
	m["virt_read_p999_us"] = metric{percentile(p0.readLat, 0.999), "us"}
	m["host_ops_s"] = metric{median(passes, func(r *passResult) float64 {
		return ratio(float64(r.ops), float64(r.hostNs)/1e9)
	}), "1/s"}
	m["host_live_heap_mb"] = metric{median(passes, func(r *passResult) float64 {
		return float64(r.heapBytes) / mib
	}), "MiB"}
	m["setup_s"] = metric{median(passes, func(r *passResult) float64 {
		return float64(r.setupNs) / 1e9
	}), "s"}
}

// hostCPUBuckets are the packages whose CPU share the traced run reports.
var hostCPUBuckets = []string{"fs", "pagecache", "vfs", "crosslib", "predictor", "bitmap",
	"rangetree", "readahead", "blockdev", "simtime", "telemetry", "runtime"}

// reportedCats are the critical-path categories the traced run reports;
// the fault-injection categories (stall, retry) must stay zero because
// injection is off.
var reportedCats = []string{"cpu", "device", "queue", "lock", "copy", "inflight"}

// layerMetrics fills the traced run's per-layer metrics. Counts come from
// the first untraced pass, span attribution and prefetch usefulness from
// the first traced pass, host costs are medians over passes of each kind.
func layerMetrics(m map[string]metric, passes []*passResult, cpuShares map[string]float64) error {
	var plain, traced []*passResult
	for _, r := range passes {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced run needs an untraced and a traced pass, got %d and %d", len(plain), len(traced))
	}
	u, t := plain[0], traced[0]
	c := u.counts
	ops := float64(u.ops)
	perOp := func(v int64) float64 { return ratio(float64(v), ops) }
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("crosslib.readahead_info_per_op", "count/op", perOp(c[cRAInfo]))
	set("crosslib.saved_prefetch_frac", "frac", ratio(float64(c[cLibSaved]), float64(c[cLibSaved]+c[cLibPrefetchCalls])))
	set("predictor.arm_promotions", "count", float64(c[cArmPromotions]))
	set("predictor.live_arm", "arm", float64(c[cLiveArm]))
	set("pagecache.hit_rate", "frac", ratio(float64(c[cCacheHits]), float64(c[cCacheHits]+c[cCacheMisses])))
	set("pagecache.evictions_per_op", "count/op", perOp(c[cEvictions]))
	set("pagecache.direct_reclaim_per_op", "count/op", perOp(c[cDirectReclaim]))
	set("pagecache.writeback_pages_per_op", "count/op", perOp(c[cDevWriteBytes]/blockSize))
	devBytes := float64(c[cDevReadBytes] + c[cDevWriteBytes])
	set("blockdev.cmds_per_mb", "count/MiB", ratio(float64(c[cDevReadOps]+c[cDevWriteOps]), devBytes/mib))
	set("blockdev.merge_frac", "frac", ratio(float64(c[cPlugMerged]), float64(c[cPlugSegments])))
	set("blockdev.busy_frac", "frac", ratio(float64(c[cDevBusyNs]), float64(u.spanNs)))
	set("blockdev.read_amp", "B/B", ratio(float64(c[cDevReadBytes]), float64(u.readBytes)))
	set("blockdev.write_amp", "B/B", ratio(float64(c[cDevWriteBytes]), float64(u.writeBytes)))
	set("blockdev.lane_mean_batch", "count", ratio(float64(c[cLaneCommands]), float64(c[cLaneBatches])))
	set("blockdev.lane_max_queue_wait_us", "us", float64(c[cLaneMaxWaitNs])/1e3)
	set("write.virt_p50_us", "us", percentile(u.writeLat, 0.50))
	set("write.virt_p99_us", "us", percentile(u.writeLat, 0.99))

	set("prefetch.accuracy", "frac", ratio(float64(t.prefetchUsed), float64(t.prefetchIns)))
	set("prefetch.wasted_pages_per_op", "count/op", ratio(float64(t.prefetchWasted), float64(t.ops+t.warmOps)))
	a := t.attr
	set("prefetch.late_frac", "frac", ratio(float64(a.lateRoots), float64(a.readRoots)))
	for l, ns := range a.layers {
		set("vt."+layerNames[l]+"_us_per_op", "us/op", perOp(ns)/1e3)
	}
	set("vt.reap_wait_us_per_op", "us/op", perOp(a.reapWait)/1e3)
	for _, cat := range reportedCats {
		set("vt.cat."+cat+"_us_per_op", "us/op", perOp(a.cats[cat])/1e3)
	}
	for cat, ns := range a.cats {
		if ns != 0 && !slices.Contains(reportedCats, cat) {
			return fmt.Errorf("critical-path category %s holds %d ns with fault injection off", cat, ns)
		}
	}

	for _, pkg := range hostCPUBuckets {
		set("host.cpu."+pkg, "frac", cpuShares[pkg])
	}
	set("host.allocs_per_op", "count/op", median(plain, func(r *passResult) float64 {
		return ratio(float64(r.allocs), float64(r.ops))
	}))
	set("host.bytes_per_op", "B/op", median(plain, func(r *passResult) float64 {
		return ratio(float64(r.allocBytes), float64(r.ops))
	}))
	set("host.fs_fill_ns_per_kb", "ns/KiB", median(plain, func(r *passResult) float64 {
		return ratio(float64(r.fillNs), r.fillKB)
	}))
	hostPerOp := func(r *passResult) float64 { return ratio(float64(r.hostNs), float64(r.ops)) }
	set("host.trace_overhead_frac", "frac", ratio(median(traced, hostPerOp), median(plain, hostPerOp))-1)
	return nil
}
