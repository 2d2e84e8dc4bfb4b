package experiments

import (
	"fmt"
	"sync"

	crossprefetch "repro"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// The block-scheduler switch mirrors the telemetry one: crossbench flips
// it with -plug/-qd/-merge-window and every system built through newSys
// picks it up, overriding any per-cell scheduler settings.
var (
	schedMu  sync.Mutex
	schedCfg *SchedConfig
)

// SchedConfig configures the block-layer submission scheduler for
// systems built by subsequent experiment runs.
type SchedConfig struct {
	Plug             bool
	QueueDepth       int
	MergeWindowBytes int64
}

// EnableBlockSched installs a process-wide scheduler configuration for
// experiment systems (nil restores per-cell settings).
func EnableBlockSched(cfg *SchedConfig) {
	schedMu.Lock()
	defer schedMu.Unlock()
	schedCfg = cfg
}

func blockSched() *SchedConfig {
	schedMu.Lock()
	defer schedMu.Unlock()
	return schedCfg
}

// Batch measures what the block-layer scheduler buys: the same
// sequential multi-stream microbenchmark run with plugging off and on
// across queue depths. Plugging merges each stream's 2MB chunk train
// into MergeWindow-sized commands, so the device sees fewer commands
// (one CmdOverhead each) for identical byte totals; the table reports
// the command-count reduction and makespan side by side. The
// congestion cutoff is raised so both modes issue identical prefetch
// volume and the comparison is byte-for-byte.
func Batch(o Options) (*Table, error) {
	mem := int64(256<<20) / o.scale(4)
	total := mem / 2 // fits in cache: every byte moves exactly once
	threads := 4
	if o.Quick {
		threads = 2
	}

	t := &Table{
		ID:    "batch",
		Title: "Block-layer plugging: device commands and makespan, plug off vs on",
		Columns: []string{"cell", "read-cmds", "read-MB", "merged-segs",
			"makespan-ms", "MB/s", "cmds-vs-off"},
	}
	t.Note("memory=%s data=%s threads=%d approach=%v", mb(mem), mb(total),
		threads, crossprefetch.CrossFetchAllOpt)

	type cell struct {
		name string
		plug bool
		qd   int
	}
	cells := []cell{{"plug-off", false, 0}}
	for _, qd := range []int{1, 8, 32} {
		cells = append(cells, cell{fmt.Sprintf("plug-qd%d", qd), true, qd})
	}

	var baseCmds float64
	for _, c := range cells {
		res, err := workload.RunMicro(workload.MicroConfig{
			Sys: newSys(crossprefetch.Config{
				Approach:        crossprefetch.CrossFetchAllOpt,
				MemoryBytes:     mem,
				Plug:            c.plug,
				QueueDepth:      c.qd,
				CongestionLimit: simtime.Second,
			}),
			Threads:    threads,
			IOSize:     16 << 10,
			TotalBytes: total,
			Shared:     false,
			Sequential: true,
			Seed:       o.Seed + 11,
		})
		if err != nil {
			return nil, err
		}
		dev := res.Metrics.Device
		cmds := float64(dev.ReadOps)
		if !c.plug {
			baseCmds = cmds
		}
		t.AddRow(c.name, f0(cmds), f1(float64(dev.ReadBytes)/(1<<20)),
			f0(float64(dev.MergedSegments)),
			f1(float64(res.Makespan)/float64(simtime.Millisecond)),
			f1(res.ReadMBs), ratio(cmds, baseCmds))
	}
	return t, nil
}
