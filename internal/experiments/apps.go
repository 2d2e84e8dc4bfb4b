package experiments

import (
	crossprefetch "repro"
	"repro/internal/filebench"
	"repro/internal/lsm"
	"repro/internal/snappy"
	"repro/internal/ycsb"
)

// Fig8b reproduces Figure 8b: Filebench multi-instance workloads (seqread,
// randread, mongodb, videoserver) sharing one system. Paper: 16 instances,
// 160GB aggregate.
func Fig8b(o Options) (*Table, error) {
	s := o.scale(4)
	mem := int64(512<<20) / s
	perInstance := int64(64<<20) / s
	instances := 8
	opsPerThread := int64(192)
	if o.Quick {
		instances = 2
		opsPerThread = 48
	}

	t := &Table{
		ID:      "fig8b",
		Title:   "Filebench multi-instance workloads",
		Columns: []string{"workload", "approach", "MB/s", "ops/s", "miss%", "vs-APPonly"},
	}
	t.Note("instances=%d dataset=%s/instance memory=%s", instances, mb(perInstance), mb(mem))

	for _, p := range filebench.Profiles() {
		var base float64
		for _, a := range microApproaches {
			res, err := filebench.Run(filebench.Config{
				Sys:                newSys(crossprefetch.Config{Approach: a, MemoryBytes: mem}),
				Profile:            p,
				Instances:          instances,
				ThreadsPerInstance: 2,
				BytesPerInstance:   perInstance,
				OpsPerThread:       opsPerThread,
				Seed:               o.Seed + 21,
			})
			if err != nil {
				return nil, err
			}
			if a == crossprefetch.AppOnly {
				base = res.MBPerSec
			}
			t.AddRow(string(p), a.String(), f1(res.MBPerSec), f0(res.OpsPerSec),
				f1(res.MissPct), ratio(res.MBPerSec, base))
		}
	}
	return t, nil
}

// Fig9a reproduces Figure 9a: YCSB workloads A–F with 16 client threads
// and 4KB values over the LSM store.
func Fig9a(o Options) (*Table, error) {
	s := o.scale(2)
	records := int64(40_000_000) / (s * 1024)
	if records < 1500 {
		records = 1500
	}
	mem := records * 4096 * 2 / 3 // memory holds ~2/3 of the dataset
	threads := 8
	ops := records / int64(threads) / 2
	if o.Quick {
		threads = 2
		ops = 200
	}

	t := &Table{
		ID:      "fig9a",
		Title:   "YCSB A-F over the LSM store",
		Columns: []string{"workload", "approach", "kops/s", "miss%", "vs-APPonly"},
	}
	t.Note("records=%d value=4KB memory=%s threads=%d", records, mb(mem), threads)

	approaches := []crossprefetch.Approach{
		crossprefetch.AppOnly, crossprefetch.OSOnly,
		crossprefetch.CrossPredictOpt, crossprefetch.CrossFetchAllOpt,
	}
	for _, w := range ycsb.All() {
		var base float64
		for _, a := range approaches {
			res, err := ycsb.Run(w, ycsb.Config{
				Sys:          newSys(crossprefetch.Config{Approach: a, MemoryBytes: mem}),
				DB:           dbOptions(),
				Records:      records,
				ValueBytes:   4096,
				Threads:      threads,
				OpsPerThread: ops,
				Seed:         o.Seed + 31,
			})
			if err != nil {
				return nil, err
			}
			if a == crossprefetch.AppOnly {
				base = res.KopsPerSec
			}
			t.AddRow(w.String(), a.String(), f1(res.KopsPerSec), f1(res.MissPct),
				ratio(res.KopsPerSec, base))
		}
	}
	return t, nil
}

// Fig9b reproduces Figure 9b: Snappy parallel compression as the
// memory:dataset ratio varies from 1:6 to 1:1. Paper: 120GB of 100MB
// files, 16 threads.
func Fig9b(o Options) (*Table, error) {
	s := o.scale(4)
	fileBytes := int64(16<<20) / s
	files := 24
	threads := 8
	if o.Quick {
		files = 8
		threads = 2
	}
	dataset := fileBytes * int64(files)

	t := &Table{
		ID:      "fig9b",
		Title:   "Snappy parallel compression vs memory:dataset ratio",
		Columns: []string{"mem:data", "approach", "MB/s", "miss%", "evicted-lib", "vs-APPonly"},
	}
	t.Note("files=%d x %s threads=%d", files, mb(fileBytes), threads)

	ratios := []struct {
		name string
		den  int64
	}{{"1:6", 6}, {"1:4", 4}, {"1:2", 2}, {"1:1", 1}}
	if o.Quick {
		ratios = ratios[1:3]
	}
	for _, r := range ratios {
		var base float64
		for _, a := range microApproaches {
			res, err := snappy.RunApp(snappy.AppConfig{
				Sys:       newSys(crossprefetch.Config{Approach: a, MemoryBytes: dataset / r.den}),
				Files:     files,
				FileBytes: fileBytes,
				Threads:   threads,
				Seed:      o.Seed + 41,
			})
			if err != nil {
				return nil, err
			}
			if a == crossprefetch.AppOnly {
				base = res.MBPerSec
			}
			t.AddRow(r.name, a.String(), f1(res.MBPerSec), f1(res.MissPct),
				f0(float64(res.Metrics.Lib.EvictedPages)), ratio(res.MBPerSec, base))
		}
	}
	return t, nil
}

// ensure lsm import is referenced by the shared helpers file.
var _ = lsm.ReadRandom
