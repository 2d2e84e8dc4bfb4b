package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// promName sanitizes s into a legal Prometheus metric-name fragment
// (the snapshot keys are snake_case already; outcome names carry '-').
func promName(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// promLabel escapes a label value per the text exposition format
// (backslash, double quote, and newline must be escaped).
func promLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// counterHelp is the HELP text per counter, indexed by identifier like
// counterNames; TestHelpTablesComplete rejects empty entries.
var counterHelp = [numCounters]string{
	CtrLibIssuedPages:             "Pages CROSS-LIB asked readahead_info to prefetch, before the kernel limit clamp.",
	CtrKernelRequestedPages:       "Pages readahead_info saw requested after the file clamp, before the limit clamp.",
	CtrKernelAdmittedPages:        "Requested pages within the effective kernel prefetch limit.",
	CtrKernelRejectedPages:        "Requested pages cut off by the kernel prefetch limit.",
	CtrKernelPrefetchedPages:      "Pages readahead_info actually submitted prefetch I/O for.",
	CtrVFSPrefetchInsertedPages:   "Pages the VFS prefetch paths newly inserted into the page cache.",
	CtrVFSPrefetchDevicePages:     "Pages of device reads issued by the VFS prefetch paths.",
	CtrVFSDemandFetchPages:        "Pages of blocking demand device reads (misses and RMW edges).",
	CtrCacheInsertedPages:         "Pages newly inserted into the page cache, all sources.",
	CtrCacheRemovedPages:          "Pages evicted or dropped from the page cache.",
	CtrCachePrefetchInsertedPages: "Inserted pages that came from a prefetch (effectiveness denominator).",
	CtrPrefetchHitPages:           "Prefetched pages a later lookup used (first use).",
	CtrPrefetchWastedPages:        "Prefetched pages evicted before any use.",
	CtrDeviceReadBytes:            "Raw bytes read from the simulated device.",
	CtrDeviceWriteBytes:           "Raw bytes written to the simulated device.",
	CtrCacheDirtyInsertedPages:    "Inserted pages that entered dirty (buffered writes, writeback requeues).",
	CtrDeviceInjectedFaults:       "Device requests failed by the fault injector.",
	CtrDeviceInjectedStallNs:      "Virtual nanoseconds of injected device latency spikes.",
	CtrVFSDemandRetries:           "Blocking-read/fsync retries of transient device faults.",
	CtrVFSDemandIOErrors:          "Demand I/O failures surfaced to the application.",
	CtrVFSWritebackRetries:        "Background writeback retries of transient device faults.",
	CtrWritebackLostPages:         "Dirty pages dropped after exhausting the writeback retry budget.",
	CtrLibPrefetchRetries:         "CROSS-LIB background-prefetch retries after transient faults.",
	CtrLibBreakerTrips:            "Per-file circuit breaker transitions closed to open.",
	CtrLibBreakerRecoveries:       "Per-file circuit breaker transitions open to closed.",
	CtrDevicePlugSegments:         "Requests submitted through the block plug API.",
	CtrDevicePlugCommands:         "Device commands dispatched after plug merging.",
	CtrDevicePlugMergedSegments:   "Segments absorbed into another command by a front/back merge.",
	CtrDevicePlugSegmentBytes:     "Byte total of plug-submitted segments.",
	CtrDevicePlugCommandBytes:     "Byte total of dispatched commands (merge-invariant: equals segment bytes).",
	CtrRingSQESubmitted:           "Submission-queue entries accepted onto rings.",
	CtrRingCQECompleted:           "Completions delivered to ring reapers.",
	CtrRingEnterCalls:             "ring_enter crossings (one per submitted batch).",
	CtrRingDispatchBatches:        "Fair-share lane dispatches that issued at least one device command.",
	CtrRingDispatchCommands:       "Merged device commands issued by lane dispatches.",
	CtrRingBackpressure:           "SQEs refused at ring admission (ring full).",
	CtrRingShedSQEs:               "SQEs completed with ErrShed under overload, never touching the device.",
	CtrRingShedPrefetchPages:      "Pages carried by shed prefetch intents (work brownout saved).",
	CtrRingDeadlineMisses:         "CQEs delivered with ErrDeadlineExceeded.",
	CtrBrownoutTransitions:        "Brownout pressure-level changes (either direction).",
	CtrCacheTenantReclaims:        "Tenant-targeted direct reclaim passes on hard-budget breaches.",
	CtrPredArmPromotions:          "Bandit promotions of a challenger predictor arm to live.",
	CtrPredShadowIssuedPages:      "Pages the shadow predictor arms would have prefetched.",
	CtrPredShadowHitPages:         "Shadow-predicted pages a later access overlapped.",
	CtrPredShadowExpiredPages:     "Shadow-predicted pages that aged out or were overwritten unconsumed.",
	CtrDeviceCommands:             "Completed device commands after plug merging, all stack members (per-backend partition parent).",
	CtrTierPromotions:             "Extents promoted from the remote tier to local storage.",
	CtrTierPrefetchPromotions:     "Tier promotions driven by cross-tier prefetch landing remote pages locally.",
	CtrTierDemotions:              "Extents demoted from local storage under the capacity watermarks.",
	CtrTierCopybackBytes:          "Bytes copied back to the remote tier when demoting dirty extents.",
	CtrVFSZeroFillPages:           "Hole pages the VFS demand paths zero-filled into the page cache without device I/O.",
}

// outcomeHelp is the HELP text per prefetch-decision outcome, indexed by
// identifier (TestHelpTablesComplete coverage, same as counterHelp).
var outcomeHelp = [numOutcomes]string{
	OutcomeIssued:               "intent reached the kernel as readahead work",
	OutcomeSavedByBitmap:        "kernel crossing elided by the user-level bitmap",
	OutcomeDroppedLowMemory:     "dropped: free memory below the low watermark",
	OutcomeThrottledBatching:    "parked: uncovered tail below the crossing hysteresis",
	OutcomeThrottledSteadyState: "skipped: predictor saturated",
	OutcomeDroppedQueueFull:     "dropped: helper threads booked past the horizon",
	OutcomeEvictedBeforeUse:     "prefetched pages reclaimed before any use",
	OutcomeDeviceFault:          "prefetch device request failed",
	OutcomeRetriedTransient:     "transient prefetch fault retried after backoff",
	OutcomeDroppedBreakerOpen:   "dropped: per-file circuit breaker open",
	OutcomeBreakerTripped:       "repeated failures opened the per-file breaker",
	OutcomeBreakerRecovered:     "half-open probe closed the breaker",
	OutcomeBatchedIntent:        "small intent parked in the per-file aggregator",
	OutcomeShedPrefetch:         "ring path shed a prefetch intent under overload",
	OutcomeBrownoutRaised:       "pressure controller raised the brownout level",
	OutcomeBrownoutLowered:      "pressure controller lowered the brownout level",
	OutcomeLatePrefetch:         "demand read consumed pages whose prefetch I/O was still in flight",
	OutcomeArmPromoted:          "bandit promoted a challenger predictor arm to live",
}

// histHelp is the HELP text per built-in histogram, indexed by
// identifier.
var histHelp = [numHists]string{
	HistDevReadLat:    "Device read submit-to-complete time, virtual nanoseconds (log2 buckets).",
	HistDevWriteLat:   "Device write submit-to-complete time, virtual nanoseconds (log2 buckets).",
	HistDevReadBytes:  "Device read request sizes in bytes (log2 buckets).",
	HistDevWriteBytes: "Device write request sizes in bytes (log2 buckets).",
	HistPrefetchLat:   "Prefetch issue-to-complete time per device chunk, virtual nanoseconds.",
	HistRingBatchCmds: "Device commands per fair-share lane dispatch (achieved queue depth).",
	HistRingQueueWait: "Virtual time an SQE's device work waited staged in its tenant lane.",
	HistPrefetchToUse: "Prefetched page insertion-to-first-use virtual time (timeliness).",
}

// helpByName inverts an identifier-indexed help table into export-name
// keys, matching the snapshot maps the writer iterates.
func helpByName(names, helps []string) map[string]string {
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = helps[i]
	}
	return m
}

var (
	counterHelpByName = helpByName(counterNames[:], counterHelp[:])
	histHelpByName    = helpByName(histNames[:], histHelp[:])
)

// WritePrometheus writes the snapshot in Prometheus text exposition
// format (version 0.0.4), so bench runs can be diffed and graphed with
// standard tooling. Every family carries HELP and TYPE metadata. Metric
// families, in order:
//
//	crossprefetch_<counter>_total                      cross-layer counters
//	crossprefetch_outcome_{events,pages}_total{outcome=...}
//	crossprefetch_origin_{inserted,used,wasted}_pages_total{origin=...}
//	crossprefetch_arm_{inserted,used,wasted}_pages_total{arm=...}
//	crossprefetch_<hist>{_bucket{le=...},_sum,_count}  log2 histograms
//	crossprefetch_syscall_<name>{_bucket,...}          per-syscall latency
//	crossprefetch_events_{recorded,dropped}_total      decision-trace ring
//	crossprefetch_tracer_*                             span tracer accounting
//
// Output is deterministic: every section iterates sorted keys.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		m := "crossprefetch_" + promName(name) + "_total"
		help := counterHelpByName[name]
		if help == "" {
			help = "Cross-layer counter " + name + "."
		}
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", m, help, m, m, s.Counters[name])
	}
	p("# HELP crossprefetch_outcome_events_total Prefetch-decision trace events by outcome.\n")
	p("# TYPE crossprefetch_outcome_events_total counter\n")
	for _, name := range sortedKeys(s.Outcomes) {
		p("crossprefetch_outcome_events_total{outcome=\"%s\"} %d\n", promLabel(name), s.Outcomes[name].Events)
	}
	p("# HELP crossprefetch_outcome_pages_total Pages covered by prefetch-decision trace events, by outcome.\n")
	p("# TYPE crossprefetch_outcome_pages_total counter\n")
	for _, name := range sortedKeys(s.Outcomes) {
		p("crossprefetch_outcome_pages_total{outcome=\"%s\"} %d\n", promLabel(name), s.Outcomes[name].Pages)
	}
	for _, fam := range []struct {
		name, help string
		val        func(OriginStat) int64
	}{
		{"origin_inserted_pages_total", "Pages inserted into the cache by insertion origin (partition of cache_inserted_pages).", func(o OriginStat) int64 { return o.Inserted }},
		{"origin_used_pages_total", "Prefetched pages first used by a reader, by origin (partition of prefetch_hit_pages).", func(o OriginStat) int64 { return o.Used }},
		{"origin_wasted_pages_total", "Prefetched pages evicted unused, by origin (partition of prefetch_wasted_pages).", func(o OriginStat) int64 { return o.Wasted }},
	} {
		m := "crossprefetch_" + fam.name
		p("# HELP %s %s\n# TYPE %s counter\n", m, fam.help, m)
		for _, name := range sortedKeys(s.Origins) {
			p("%s{origin=\"%s\"} %d\n", m, promLabel(name), fam.val(s.Origins[name]))
		}
	}
	for _, fam := range []struct {
		name, help string
		val        func(OriginStat) int64
	}{
		{"arm_inserted_pages_total", "Prefetch-credit pages inserted by predictor arm (partition of the prefetch-origin ledger; arm=none covers prefetches no ensemble arm drove).", func(o OriginStat) int64 { return o.Inserted }},
		{"arm_used_pages_total", "Prefetched pages first used by a reader, by predictor arm.", func(o OriginStat) int64 { return o.Used }},
		{"arm_wasted_pages_total", "Prefetched pages evicted unused, by predictor arm.", func(o OriginStat) int64 { return o.Wasted }},
	} {
		m := "crossprefetch_" + fam.name
		p("# HELP %s %s\n# TYPE %s counter\n", m, fam.help, m)
		for _, name := range sortedKeys(s.Arms) {
			p("%s{arm=\"%s\"} %d\n", m, promLabel(name), fam.val(s.Arms[name]))
		}
	}
	writeHist := func(metric, help string, h HistogramSnapshot) {
		p("# HELP %s %s\n# TYPE %s histogram\n", metric, help, metric)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			// Log2 bucket [Lo, Hi) of integer samples = le Hi-1 inclusive.
			p("%s_bucket{le=\"%d\"} %d\n", metric, b.Hi-1, cum)
		}
		p("%s_bucket{le=\"+Inf\"} %d\n", metric, h.Count)
		p("%s_sum %d\n%s_count %d\n", metric, h.Sum, metric, h.Count)
	}
	for _, name := range sortedKeys(s.Histograms) {
		help := histHelpByName[name]
		if help == "" {
			help = "Log2 histogram " + name + "."
		}
		writeHist("crossprefetch_"+promName(name), help, s.Histograms[name])
	}
	for _, name := range sortedKeys(s.Syscalls) {
		writeHist("crossprefetch_syscall_"+promName(name),
			"Per-syscall latency, virtual nanoseconds (log2 buckets).", s.Syscalls[name])
	}
	if len(s.Backends) > 0 {
		for _, fam := range []struct {
			name, help string
			val        func(BackendSnapshot) int64
		}{
			{"backend_commands_total", "Completed device commands per stack backend (partition of device_commands).", func(b BackendSnapshot) int64 { return b.Commands }},
			{"backend_read_bytes_total", "Bytes read per stack backend (partition of device_read_bytes).", func(b BackendSnapshot) int64 { return b.ReadBytes }},
			{"backend_write_bytes_total", "Bytes written per stack backend (partition of device_write_bytes).", func(b BackendSnapshot) int64 { return b.WriteBytes }},
		} {
			m := "crossprefetch_" + fam.name
			p("# HELP %s %s\n# TYPE %s counter\n", m, fam.help, m)
			for _, name := range sortedKeys(s.Backends) {
				p("%s{backend=\"%s\"} %d\n", m, promLabel(name), fam.val(s.Backends[name]))
			}
		}
		for _, name := range sortedKeys(s.Backends) {
			b := s.Backends[name]
			writeHist("crossprefetch_backend_queue_wait_"+promName(name),
				"Per-backend command queue wait (submit to admission), virtual nanoseconds (log2 buckets).", b.QueueWait)
			writeHist("crossprefetch_backend_service_"+promName(name),
				"Per-backend command service time (admission to completion), virtual nanoseconds (log2 buckets).", b.Service)
		}
	}
	p("# HELP crossprefetch_events_recorded_total Decision-trace events recorded (ring-buffered; counters stay exact past the cap).\n")
	p("# TYPE crossprefetch_events_recorded_total counter\ncrossprefetch_events_recorded_total %d\n", s.EventsTotal)
	p("# HELP crossprefetch_events_dropped_total Decision-trace events dropped by the bounded ring.\n")
	p("# TYPE crossprefetch_events_dropped_total counter\ncrossprefetch_events_dropped_total %d\n", s.EventsDropped)
	if t := s.Trace; t != nil {
		for _, g := range []struct {
			name, help string
			v          int64
		}{
			{"tracer_sampled_roots_total", "Root operations the span tracer sampled.", t.SampledRoots},
			{"tracer_skipped_roots_total", "Root operations the span tracer skipped.", t.SkippedRoots},
			{"tracer_kept_roots", "Root spans currently retained by the flight recorder.", t.KeptRoots},
			{"tracer_dropped_roots_total", "Completed sampled roots the flight recorder let go.", t.DroppedRoots},
			{"tracer_dropped_spans_total", "Child spans cut by the per-root cap.", t.DroppedSpans},
			{"tracer_demand_pages_total", "Demand-read pages observed under sampled roots.", t.DemandPages},
			{"tracer_prefetch_pages_total", "Prefetch pages observed under sampled roots.", t.PrefetchPages},
			{"tracer_sample_every", "Sampling rate: 1-in-N top-level operations.", t.SampleEvery},
		} {
			p("# HELP crossprefetch_%s %s\n# TYPE crossprefetch_%s gauge\ncrossprefetch_%s %d\n",
				g.name, g.help, g.name, g.name, g.v)
		}
	}
	return err
}
