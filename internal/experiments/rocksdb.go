package experiments

import (
	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/lsm"
)

// dbParams derives the scaled database sizing for the LSM experiments.
// Paper: 40M keys ≈ 120GB (≈3KB/key), 80GB of memory.
type dbParams struct {
	keys       int64
	valueBytes int
	memory     int64
	opsFactor  int64 // ops per thread = keys/threads/opsFactor
}

func defaultDBParams(o Options, scale int64) dbParams {
	s := o.scale(scale)
	p := dbParams{
		keys:       40_000_000 / (s * 512),
		valueBytes: 3072,
		memory:     (80 << 30) / (s * 512),
		opsFactor:  2,
	}
	if p.keys < 2000 {
		p.keys = 2000
	}
	if p.memory < 8<<20 {
		p.memory = 8 << 20
	}
	return p
}

func dbOptions() lsm.Options {
	return lsm.Options{MemtableBytes: 1 << 20, BlockBytes: 16 << 10}
}

// runDBCell executes one (approach, workload, threads) cell.
func runDBCell(o Options, p dbParams, cfg crossprefetch.Config, w lsm.Workload, threads int) (lsm.BenchResult, error) {
	ops := p.keys / int64(threads) / p.opsFactor
	if ops < 64 {
		ops = 64
	}
	return lsm.RunBench(lsm.BenchConfig{
		Sys:          newSys(cfg),
		DB:           dbOptions(),
		NumKeys:      p.keys,
		ValueBytes:   p.valueBytes,
		Threads:      threads,
		Workload:     w,
		OpsPerThread: ops,
		Seed:         o.Seed + 11,
	})
}

// Fig2 reproduces the motivation analysis (Figure 2 + Table 1): LSM
// multireadrandom with 32 threads where the data fits in memory, comparing
// APPonly, APPonly[fincore], OSonly, and CrossPrefetch, reporting
// throughput plus lock overhead and cache-miss percentages.
func Fig2(o Options) (*Table, error) {
	p := defaultDBParams(o, 2)
	p.memory = p.memory * 2 // paper: 100GB data fits in 128GB memory
	threads := 16
	if o.Quick {
		threads = 4
	}
	t := &Table{
		ID:      "fig2",
		Title:   "Motivation: multireadrandom with data fitting in memory (+Table 1)",
		Columns: []string{"approach", "kops/s", "lock%", "miss%", "prefetch-syscalls"},
	}
	t.Note("keys=%d value=%dB memory=%s threads=%d", p.keys, p.valueBytes, mb(p.memory), threads)
	for _, a := range []crossprefetch.Approach{
		crossprefetch.AppOnly, crossprefetch.AppOnlyFincore,
		crossprefetch.OSOnly, crossprefetch.CrossPredictOpt,
	} {
		res, err := runDBCell(o, p, crossprefetch.Config{Approach: a, MemoryBytes: p.memory}, lsm.MultiReadRandom, threads)
		if err != nil {
			return nil, err
		}
		t.AddRow(a.String(), f0(res.KopsPerSec), f1(res.LockPct), f1(res.MissPct),
			f0(float64(res.Metrics.Prefetch)))
	}
	return t, nil
}

// dbApproaches is the five-way comparison used by Figures 7 and 8a.
var dbApproaches = []crossprefetch.Approach{
	crossprefetch.AppOnly,
	crossprefetch.OSOnly,
	crossprefetch.CrossPredict,
	crossprefetch.CrossPredictOpt,
	crossprefetch.CrossFetchAllOpt,
}

// Fig7a reproduces Figure 7a: multireadrandom throughput vs thread count.
func Fig7a(o Options) (*Table, error) {
	p := defaultDBParams(o, 2)
	threadCounts := []int{1, 4, 16, 32}
	if o.Quick {
		threadCounts = []int{2, 4}
	}
	t := &Table{
		ID:      "fig7a",
		Title:   "db_bench multireadrandom: throughput vs thread count",
		Columns: []string{"threads", "approach", "kops/s", "miss%", "vs-APPonly"},
	}
	t.Note("keys=%d value=%dB memory=%s", p.keys, p.valueBytes, mb(p.memory))
	for _, threads := range threadCounts {
		var base float64
		for _, a := range dbApproaches {
			res, err := runDBCell(o, p, crossprefetch.Config{Approach: a, MemoryBytes: p.memory}, lsm.MultiReadRandom, threads)
			if err != nil {
				return nil, err
			}
			if a == crossprefetch.AppOnly {
				base = res.KopsPerSec
			}
			t.AddRow(f0(float64(threads)), a.String(), f0(res.KopsPerSec),
				f1(res.MissPct), ratio(res.KopsPerSec, base))
		}
	}
	return t, nil
}

// dbPatterns are Figure 7b's access patterns.
var dbPatterns = []lsm.Workload{
	lsm.ReadSeq, lsm.ReadRandom, lsm.ReadReverse, lsm.ReadScan, lsm.MultiReadRandom,
}

// patternTable runs the 7b-style pattern × approach grid for a layout and
// device.
func patternTable(o Options, id, title string, layout crossprefetch.Layout, dev blockdev.Config) (*Table, error) {
	p := defaultDBParams(o, 2)
	threads := 16
	if o.Quick {
		threads = 4
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"pattern", "approach", "kops/s", "MB/s", "miss%", "vs-APPonly"},
	}
	t.Note("keys=%d value=%dB memory=%s threads=%d", p.keys, p.valueBytes, mb(p.memory), threads)
	for _, w := range dbPatterns {
		var base float64
		for _, a := range dbApproaches {
			res, err := runDBCell(o, p,
				crossprefetch.Config{Approach: a, MemoryBytes: p.memory, Layout: layout, Device: dev}, w, threads)
			if err != nil {
				return nil, err
			}
			if a == crossprefetch.AppOnly {
				base = res.KopsPerSec
			}
			t.AddRow(string(w), a.String(), f0(res.KopsPerSec), f1(res.MBPerSec),
				f1(res.MissPct), ratio(res.KopsPerSec, base))
		}
	}
	return t, nil
}

// Fig7b reproduces Figure 7b: access patterns on local NVMe + ext4.
func Fig7b(o Options) (*Table, error) {
	return patternTable(o, "fig7b", "db_bench access patterns (ext4, local NVMe, 16 threads)",
		crossprefetch.LayoutExt4, blockdev.Config{})
}

// Fig7d reproduces Figure 7d: the same patterns on F2FS.
func Fig7d(o Options) (*Table, error) {
	return patternTable(o, "fig7d", "db_bench access patterns on F2FS (16 threads)",
		crossprefetch.LayoutF2FS, blockdev.Config{})
}

// Fig8a reproduces Figure 8a: the same patterns on remote NVMe-oF storage.
func Fig8a(o Options) (*Table, error) {
	return patternTable(o, "fig8a", "db_bench access patterns on remote NVMe-oF (16 threads)",
		crossprefetch.LayoutExt4, blockdev.RemoteNVMeConfig())
}

// Fig7c reproduces Figure 7c: multireadrandom as the memory:DB ratio
// varies from 1:6 to 1:1.
func Fig7c(o Options) (*Table, error) {
	p := defaultDBParams(o, 2)
	dbBytes := p.keys * int64(p.valueBytes+32)
	threads := 16
	if o.Quick {
		threads = 4
	}
	ratios := []struct {
		name string
		den  int64
	}{{"1:6", 6}, {"1:4", 4}, {"1:2", 2}, {"1:1", 1}}

	t := &Table{
		ID:      "fig7c",
		Title:   "db_bench multireadrandom vs memory:DB ratio",
		Columns: []string{"mem:db", "approach", "kops/s", "miss%", "evicted-lib"},
	}
	t.Note("db=%s threads=%d", mb(dbBytes), threads)
	for _, r := range ratios {
		for _, a := range dbApproaches {
			mem := dbBytes / r.den
			res, err := runDBCell(o, p, crossprefetch.Config{Approach: a, MemoryBytes: mem}, lsm.MultiReadRandom, threads)
			if err != nil {
				return nil, err
			}
			t.AddRow(r.name, a.String(), f0(res.KopsPerSec), f1(res.MissPct),
				f0(float64(res.Metrics.Lib.EvictedPages)))
		}
	}
	return t, nil
}

// Table5 reproduces Table 5: the incremental breakdown of CrossPrefetch's
// gains on 32-thread multireadrandom.
func Table5(o Options) (*Table, error) {
	p := defaultDBParams(o, 2)
	threads := 16
	if o.Quick {
		threads = 4
	}
	t := &Table{
		ID:      "tab5",
		Title:   "Breakdown of incremental gains (multireadrandom)",
		Columns: []string{"configuration", "kops/s", "miss%", "prefetch-calls", "saved-calls"},
	}
	t.Note("keys=%d memory=%s threads=%d", p.keys, mb(p.memory), threads)
	for _, a := range []crossprefetch.Approach{
		crossprefetch.AppOnly,
		crossprefetch.OSOnly,
		crossprefetch.CrossVisibility,
		crossprefetch.CrossVisibilityRangeTree,
		crossprefetch.CrossPredictOpt,
	} {
		res, err := runDBCell(o, p, crossprefetch.Config{Approach: a, MemoryBytes: p.memory}, lsm.MultiReadRandom, threads)
		if err != nil {
			return nil, err
		}
		t.AddRow(a.String(), f0(res.KopsPerSec), f1(res.MissPct),
			f0(float64(res.Metrics.Lib.PrefetchCalls)),
			f0(float64(res.Metrics.Lib.SavedPrefetches)))
	}
	return t, nil
}

// Fig10 reproduces Figure 10: multireadrandom as the kernel prefetch limit
// sweeps from 32KB to 8MB — raising the limit alone does not buy
// CrossPrefetch's gains.
func Fig10(o Options) (*Table, error) {
	p := defaultDBParams(o, 2)
	threads := 16
	if o.Quick {
		threads = 4
	}
	limits := []int64{32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20}
	if o.Quick {
		limits = []int64{128 << 10, 2 << 20}
	}
	t := &Table{
		ID:      "fig10",
		Title:   "Prefetch-limit sensitivity (multireadrandom)",
		Columns: []string{"limit", "approach", "kops/s", "miss%"},
	}
	t.Note("keys=%d memory=%s threads=%d", p.keys, mb(p.memory), threads)
	for _, lim := range limits {
		for _, a := range []crossprefetch.Approach{
			crossprefetch.AppOnly, crossprefetch.OSOnly, crossprefetch.CrossPredictOpt,
		} {
			res, err := runDBCell(o, p,
				crossprefetch.Config{Approach: a, MemoryBytes: p.memory, KernelRAMaxBytes: lim}, lsm.MultiReadRandom, threads)
			if err != nil {
				return nil, err
			}
			t.AddRow(mbOrKB(lim), a.String(), f0(res.KopsPerSec), f1(res.MissPct))
		}
	}
	return t, nil
}

func mbOrKB(v int64) string {
	if v >= 1<<20 {
		return f0(float64(v>>20)) + "MB"
	}
	return f0(float64(v>>10)) + "KB"
}
