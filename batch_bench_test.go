// Plug-scheduler benchmark sweep (`make bench-batch` → BENCH_PR5.json):
// sequential, strided, and shared-file multi-stream workloads, each run
// with plugging off and at queue depths 1/8/32. The headline metrics are
// the device read-command count and merged-segment count per run —
// merging must cut commands at identical byte totals.
package crossprefetch_test

import (
	"fmt"
	"testing"

	crossprefetch "repro"
	"repro/internal/simtime"
)

// runPlugBench runs one 4-stream workload per iteration and reports the
// device command statistics of the last run. stride is in 16KB units: 1
// reads every chunk (sequential), 4 reads every fourth chunk.
func runPlugBench(b *testing.B, shared bool, stride int64, plugged bool, qd int) {
	b.Helper()
	const (
		streams = 4
		ioSize  = int64(16 << 10)
		region  = int64(4 << 20)
	)
	var cmds, merged, bytes float64
	for i := 0; i < b.N; i++ {
		sys := crossprefetch.NewSystem(crossprefetch.Config{
			MemoryBytes: 128 << 20,
			Approach:    crossprefetch.CrossFetchAllOpt,
			Plug:        plugged,
			QueueDepth:  qd,
			// Raise the congestion cutoff so every variant issues the same
			// prefetch volume and commands are comparable byte-for-byte.
			CongestionLimit: simtime.Second,
		})
		tl0 := sys.Timeline()
		if shared {
			if err := sys.CreateSynthetic(tl0, "shared", streams*region); err != nil {
				b.Fatal(err)
			}
		} else {
			for s := 0; s < streams; s++ {
				if err := sys.CreateSynthetic(tl0, fmt.Sprintf("s%d", s), region); err != nil {
					b.Fatal(err)
				}
			}
		}
		g := sys.Group()
		for s := 0; s < streams; s++ {
			g.Go(func(id int, tl *simtime.Timeline) {
				name, base := fmt.Sprintf("s%d", id), int64(0)
				if shared {
					name, base = "shared", int64(id)*region
				}
				f, err := sys.Open(tl, name)
				if err != nil {
					b.Error(err)
					return
				}
				defer f.Close(tl)
				buf := make([]byte, ioSize)
				for off := base; off < base+region; off += stride * ioSize {
					if _, err := f.ReadAt(tl, buf, off); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		g.Wait()
		st := sys.Stack().Stats()
		cmds = float64(st.ReadOps)
		merged = float64(st.MergedSegments)
		bytes = float64(st.ReadBytes)
	}
	b.ReportMetric(cmds, "read-cmds")
	b.ReportMetric(merged, "merged-segs")
	b.ReportMetric(bytes/(1<<20), "read-MB")
}

// benchPlugVariants sweeps plug off and queue depths 1/8/32.
func benchPlugVariants(b *testing.B, shared bool, stride int64) {
	b.Run("plug-off", func(b *testing.B) { runPlugBench(b, shared, stride, false, 0) })
	for _, qd := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("plug-qd%d", qd), func(b *testing.B) {
			runPlugBench(b, shared, stride, true, qd)
		})
	}
}

func BenchmarkBatchSequential(b *testing.B) { benchPlugVariants(b, false, 1) }
func BenchmarkBatchStrided(b *testing.B)    { benchPlugVariants(b, false, 4) }
func BenchmarkBatchSharedFile(b *testing.B) { benchPlugVariants(b, true, 1) }
