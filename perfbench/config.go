package main

import (
	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/crosslib"
	"repro/internal/fs"
	"repro/internal/rangetree"
	"repro/internal/simtime"
)

// blockSize is the page and block size of every system under test.
const blockSize = 4096

// systemConfig is the one configuration every workload runs: the paper's
// full CrossPrefetch (CrossP[+predict+opt]) with the block-layer plug on
// and the competing-predictor ensemble live. Every field the stack reads
// is set here explicitly, so a later change of a library default cannot
// silently change what the benchmark measures. Only the page-cache size
// differs per workload, because each workload is sized relative to it.
//
// traced turns on span tracing and the telemetry recorder for the
// per-layer run; the virtual outputs must not change (tracing only
// observes), which the determinism digest checks.
func systemConfig(memoryBytes int64, traced bool) crossprefetch.Config {
	lib := crosslib.Options{
		Enabled:           true,
		Visibility:        true,
		Predict:           true,
		CoveragePrefetch:  true,
		OptLimits:         true,
		AggressiveEvict:   true,
		RangeTreeSpan:     rangetree.DefaultSpan,
		Workers:           4,
		OpenPrefetchBytes: 2 << 20,
		MaxPrefetchBytes:  64 << 20,
		HighWaterFrac:     0.30,
		LowWaterFrac:      0.15,
		InactiveAge:       100 * simtime.Millisecond,
		EvictCheckOps:     32,
		MmapScanOps:       64,
		BatchFlushPages:   256,
		Ensemble:          true,
		EnsembleWindowObs: 64,
		EnsembleMargin:    0.05,
		EnsemblePatience:  2,
		EnsembleSeed:      1,
		RetryMax:          2,
		RetryBase:         200 * simtime.Microsecond,
		RetryJitterFrac:   0.25,
		BreakerThreshold:  8,
		BreakerCooloff:    20 * simtime.Millisecond,
	}
	costs := simtime.DefaultCosts()
	return crossprefetch.Config{
		Device:           blockdev.NVMeConfig(),
		Layout:           fs.LayoutExtent,
		MemoryBytes:      memoryBytes,
		BlockSize:        blockSize,
		Approach:         crossprefetch.CrossPredictOpt,
		KernelRAMaxBytes: 128 << 10,
		DemandRetries:    3,
		Plug:             true,
		QueueDepth:       32,
		MergeWindowBytes: 8 << 20,
		CongestionLimit:  5 * simtime.Millisecond,
		LibOptions:       &lib,
		Costs:            &costs,
		Telemetry:        traced,
		Trace:            traced,
		TraceSampleEvery: 1,
	}
}
