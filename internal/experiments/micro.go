package experiments

import (
	crossprefetch "repro"
	"repro/internal/workload"
)

// microApproaches is the paper's Table 2 comparison set.
var microApproaches = []crossprefetch.Approach{
	crossprefetch.AppOnly,
	crossprefetch.OSOnly,
	crossprefetch.CrossPredict,
	crossprefetch.CrossPredictOpt,
	crossprefetch.CrossFetchAllOpt,
}

// Fig5 reproduces Figure 5 (microbenchmark throughput for private/shared ×
// sequential/random 16KB reads) together with Table 3 (average cache
// misses for the shared workloads). Paper scale: 200GB of data against
// 93GB of memory (2.15×), 16KB reads; here memory is scaled and the ratio
// preserved.
func Fig5(o Options) (*Table, error) {
	mem := int64(256<<20) / o.scale(4)
	total := mem * 215 / 100
	threads := 8
	if o.Quick {
		threads = 4
	}

	t := &Table{
		ID:    "fig5",
		Title: "Microbenchmark: private/shared × seq/rand 16KB reads (+Table 3 miss rates)",
		Columns: []string{"workload", "approach", "MB/s", "miss%", "lock%",
			"prefetch-calls", "saved-calls", "vs-APPonly"},
	}
	t.Note("memory=%s data=%s (2.15x) threads=%d", mb(mem), mb(total), threads)

	for _, mode := range []struct {
		name        string
		shared, seq bool
	}{
		{"private-seq", false, true},
		{"private-rand", false, false},
		{"shared-seq", true, true},
		{"shared-rand", true, false},
	} {
		var base float64
		for _, a := range microApproaches {
			res, err := workload.RunMicro(workload.MicroConfig{
				Sys:        newSys(crossprefetch.Config{Approach: a, MemoryBytes: mem}),
				Threads:    threads,
				IOSize:     16 << 10,
				TotalBytes: total,
				Shared:     mode.shared,
				Sequential: mode.seq,
				Seed:       o.Seed + 1,
			})
			if err != nil {
				return nil, err
			}
			if a == crossprefetch.AppOnly {
				base = res.ReadMBs
			}
			t.AddRow(mode.name, a.String(), f1(res.ReadMBs), f1(res.MissPct),
				f1(res.LockPct),
				f0(float64(res.Metrics.Lib.PrefetchCalls)),
				f0(float64(res.Metrics.Lib.SavedPrefetches)),
				ratio(res.ReadMBs, base))
		}
	}
	return t, nil
}

// Fig6 reproduces Figure 6: aggregated write throughput when concurrent
// readers (x-axis) and 4 writers share one large file, randomly accessing
// non-overlapping ranges. Paper: 128GB shared file.
func Fig6(o Options) (*Table, error) {
	mem := int64(128<<20) / o.scale(4)
	fileBytes := mem * 2
	readerCounts := []int{4, 8, 16, 32}
	if o.Quick {
		readerCounts = []int{2, 4}
	}

	t := &Table{
		ID:      "fig6",
		Title:   "Shared file with 4 writers: aggregated write throughput vs reader count",
		Columns: []string{"readers", "approach", "write-MB/s", "read-MB/s", "lock%"},
	}
	t.Note("shared file=%s memory=%s writers=4", mb(fileBytes), mb(mem))

	for _, readers := range readerCounts {
		for _, a := range microApproaches {
			res, err := workload.RunMicro(workload.MicroConfig{
				Sys:        newSys(crossprefetch.Config{Approach: a, MemoryBytes: mem}),
				Threads:    readers,
				Writers:    4,
				IOSize:     16 << 10,
				TotalBytes: fileBytes,
				Shared:     true,
				Sequential: false,
				Seed:       o.Seed + 2,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(f0(float64(readers)), a.String(), f1(res.WriteMBs),
				f1(res.ReadMBs), f1(res.LockPct))
		}
	}
	return t, nil
}

// Table4 reproduces Table 4: mmap sequential and random load throughput.
func Table4(o Options) (*Table, error) {
	mem := int64(256<<20) / o.scale(4)
	total := mem * 3 / 2
	threads := 4
	if o.Quick {
		threads = 2
	}

	t := &Table{
		ID:      "tab4",
		Title:   "mmap: sequential and random workloads (MB/s)",
		Columns: []string{"workload", "approach", "MB/s", "miss%", "faults"},
	}
	t.Note("memory=%s data=%s threads=%d", mb(mem), mb(total), threads)

	approaches := []crossprefetch.Approach{
		crossprefetch.AppOnly, crossprefetch.OSOnly, crossprefetch.CrossPredictOpt,
	}
	for _, mode := range []struct {
		name string
		seq  bool
	}{{"readseq", true}, {"readrandom", false}} {
		for _, a := range approaches {
			res, err := workload.RunMmap(workload.MmapConfig{
				Sys:        newSys(crossprefetch.Config{Approach: a, MemoryBytes: mem}),
				Threads:    threads,
				TotalBytes: total,
				Sequential: mode.seq,
				Seed:       o.Seed + 3,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(mode.name, a.String(), f1(res.ReadMBs), f1(res.MissPct),
				f0(float64(res.Metrics.MmapFaults)))
		}
	}
	return t, nil
}
