package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Layer counts read from outside the system through its public
// accessors, as deltas over the measured phase (gauges as their value at
// its end). They feed the per-layer metrics and the determinism digest.
const (
	cCacheHits = iota
	cCacheMisses
	cEvictions
	cDirectReclaim
	cCacheWriteback
	cDevReadOps
	cDevWriteOps
	cDevReadBytes
	cDevWriteBytes
	cDevBusyNs
	cPlugSegments
	cPlugCommands
	cPlugMerged
	cRAInfo
	cPrefetchSyscalls
	cReadSyscalls
	cWriteSyscalls
	cRingEnters
	cLibPrefetchCalls
	cLibSaved
	cLibPrefetchedPages
	cLibEvictedPages
	cLibDropped
	cArmPromotions
	cLaneBatches
	cLaneCommands
	cTenantInserted
	cTenantEvicted
	// Gauges: not differenced.
	cLiveArm
	cLaneMaxWaitNs
	numCounts
)

const firstGauge = cLiveArm

type counts [numCounts]int64

// snapshotCounts reads every layer count off the system.
func snapshotCounts(sys *crossprefetch.System) counts {
	var c counts
	m := sys.Metrics()
	c[cCacheHits] = m.Cache.Hits
	c[cCacheMisses] = m.Cache.Misses
	c[cEvictions] = m.Cache.Evictions
	c[cDirectReclaim] = m.Cache.DirectReclaim
	c[cCacheWriteback] = m.Cache.Writebacks
	c[cDevReadOps] = m.Device.ReadOps
	c[cDevWriteOps] = m.Device.WriteOps
	c[cDevReadBytes] = m.Device.ReadBytes
	c[cDevWriteBytes] = m.Device.WriteBytes
	c[cDevBusyNs] = int64(m.Device.Busy)
	c[cPlugSegments] = m.Device.PlugSegments
	c[cPlugCommands] = m.Device.PlugCommands
	c[cPlugMerged] = m.Device.MergedSegments
	k := sys.Kernel()
	c[cRAInfo] = k.SyscallCount(vfs.SysReadaheadInfo)
	c[cPrefetchSyscalls] = m.Prefetch
	c[cReadSyscalls] = m.Reads
	c[cWriteSyscalls] = m.Writes
	c[cRingEnters] = k.SyscallCount(vfs.SysRingEnter)
	st := sys.Lib().Stats()
	c[cLibPrefetchCalls] = st.PrefetchCalls
	c[cLibSaved] = st.SavedPrefetches
	c[cLibPrefetchedPages] = st.PrefetchedPages
	c[cLibEvictedPages] = st.EvictedPages
	c[cLibDropped] = st.DroppedPrefetch
	c[cArmPromotions] = st.ArmPromotions
	rs := k.RingStats()
	c[cLaneBatches] = rs.Batches
	c[cLaneCommands] = rs.Commands
	for _, ts := range rs.Tenants {
		c[cLaneMaxWaitNs] = max(c[cLaneMaxWaitNs], int64(ts.MaxQueueWait))
	}
	for _, ts := range sys.TenantStats() {
		c[cTenantInserted] += ts.Inserted
		c[cTenantEvicted] += ts.Evicted
	}
	c[cLiveArm] = int64(liveArm(sys.Lib().PredictorTable()))
	return c
}

// liveArm is the arm live on the most files, ties to the lower arm code
// (telemetry.Arm: 1 counter, 2 mithril, 3 leap); 0 with no ensemble.
func liveArm(rows []crosslib.PredictorRow) telemetry.Arm {
	var votes [telemetry.NumArms]int
	for _, r := range rows {
		for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
			if a.String() == r.Live {
				votes[a]++
			}
		}
	}
	best := telemetry.ArmNone
	for a := telemetry.Arm(1); a < telemetry.NumArms; a++ {
		if votes[a] > votes[best] {
			best = a
		}
	}
	return best
}

// passResult is everything one pass measured.
type passResult struct {
	traced bool

	// Host clock.
	setupNs    int64 // system build, provisioning, open, warm-up
	hostNs     int64 // time inside calls into the system, measured phase
	heapBytes  int64 // live heap the system holds after a forced GC
	allocs     uint64
	allocBytes uint64
	fillNs     int64 // reference content generation (fs.Inode.ReadAt)
	fillKB     float64

	// Virtual clock.
	ops, failed  int64 // measured-phase client operations
	warmOps      int64
	warmFailed   int64
	readLat      []int64 // per-read virtual latency, ns, in issue order
	writeLat     []int64
	fsyncLat     []int64
	readBytes    int64 // client bytes read
	writeBytes   int64 // client bytes written
	spanNs       int64 // virtual length of the measured phase
	measuredNs   int64 // virtual time of all calls plus reap waits
	counts       counts
	digest       uint64
	traceDigest  uint64 // traced passes: attribution and prefetch usefulness
	firstFailure string
	attr         *attribution
	// Prefetched pages inserted, used and wasted over the whole pass
	// (traced passes only).
	prefetchIns    int64
	prefetchUsed   int64
	prefetchWasted int64
}

// pass drives one fresh system through one workload and instruments
// every call into it: host time, virtual time and, on a traced pass, a
// tracer root per call whose span tree is attributed to layers.
type pass struct {
	r       *passResult
	ref     *reference // reports its fill timing with the pass
	sys     *crossprefetch.System
	tr      *telemetry.Tracer
	warming bool
	// inCall and outCall are the goroutine profiler labels inside and
	// outside calls on a traced pass, so the CPU profile can be cut to
	// the system's own work.
	inCall, outCall context.Context

	heap0  uint64
	setup0 time.Time
	before counts
	mem0   runtime.MemStats
	err    error
}

func newPass(traced bool) *pass {
	p := &pass{r: &passResult{traced: traced}, outCall: context.Background()}
	p.inCall = pprof.WithLabels(p.outCall, pprof.Labels("sut", "call"))
	if traced {
		p.r.attr = newAttribution()
	}
	return p
}

// startSetup records the live heap before the system exists (every
// benchmark-side buffer is allocated by now) and starts the set-up clock.
func (p *pass) startSetup() {
	p.heap0 = liveHeap()
	p.setup0 = time.Now()
}

// build assembles the system under test; part of set-up.
func (p *pass) build(memoryBytes int64) *crossprefetch.System {
	p.sys = crossprefetch.NewSystem(systemConfig(memoryBytes, p.r.traced))
	p.tr = p.sys.Tracer()
	p.warming = true
	return p.sys
}

// pauseSetup and resumeSetup exclude benchmark-side work (verification
// of warm-up reads) from the set-up clock.
func (p *pass) pauseSetup() { p.r.setupNs += int64(time.Since(p.setup0)) }

func (p *pass) resumeSetup() { p.setup0 = time.Now() }

// beginMeasured ends set-up and snapshots the layer counts.
func (p *pass) beginMeasured() {
	p.pauseSetup()
	p.warming = false
	p.before = snapshotCounts(p.sys)
	runtime.ReadMemStats(&p.mem0)
}

// endMeasured closes the measured phase: allocation deltas, live heap
// with the system still reachable, layer-count deltas, and on a traced
// pass the telemetry audit and the prefetch-origin totals.
func (p *pass) endMeasured() error {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.r.allocs = m.Mallocs - p.mem0.Mallocs
	p.r.allocBytes = m.TotalAlloc - p.mem0.TotalAlloc
	p.r.heapBytes = int64(liveHeap()) - int64(p.heap0)
	after := snapshotCounts(p.sys)
	for i := range after {
		if i < firstGauge {
			p.r.counts[i] = after[i] - p.before[i]
		} else {
			p.r.counts[i] = after[i]
		}
	}
	if p.r.traced {
		// Over the whole pass: pages prefetched during set-up (the
		// open-time prefetch, warm-up) are used in the measured phase.
		o := prefetchOrigins(p.sys.Telemetry())
		p.r.prefetchIns, p.r.prefetchUsed, p.r.prefetchWasted = o[0], o[1], o[2]
		if err := p.sys.AuditTelemetry(); err != nil {
			return fmt.Errorf("telemetry audit: %w", err)
		}
		if p.err != nil {
			return p.err
		}
		if err := p.r.attr.check(p.r.measuredNs); err != nil {
			return err
		}
	}
	runtime.KeepAlive(p.sys)
	return nil
}

// prefetchOrigins sums inserted, used and wasted pages over every
// prefetch origin of the recorder (zero without telemetry).
func prefetchOrigins(rec *telemetry.Recorder) [3]int64 {
	var o [3]int64
	if rec == nil {
		return o
	}
	for g := telemetry.Origin(0); g < telemetry.NumOrigins; g++ {
		if !g.IsPrefetch() {
			continue
		}
		ins, used, wasted := rec.OriginTotals(g)
		o[0] += ins
		o[1] += used
		o[2] += wasted
	}
	return o
}

func liveHeap() uint64 {
	// Two cycles: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// call runs fn, one call into the system on timeline tl, and returns the
// virtual time it advanced tl. During warm-up its host time is set-up
// time; in the measured phase it counts toward host_ops_s and, on a
// traced pass, runs under a tracer root that the library's own spans
// attach to. read marks calls that carry reads (for prefetch.late_frac).
func (p *pass) call(tl *simtime.Timeline, op telemetry.Op, ino int64, read bool, fn func()) simtime.Duration {
	v0 := tl.Now()
	if p.warming {
		fn()
		return tl.Now().Sub(v0)
	}
	h0 := time.Now()
	var root *telemetry.Span
	if p.tr != nil {
		root = p.tr.Root(tl, op, ino)
		pprof.SetGoroutineLabels(p.inCall)
	}
	fn()
	if p.tr != nil {
		pprof.SetGoroutineLabels(p.outCall)
		root.Finish(tl)
	}
	p.r.hostNs += int64(time.Since(h0))
	d := tl.Now().Sub(v0)
	p.r.measuredNs += int64(d)
	if p.tr != nil && p.err == nil {
		if root == nil {
			p.err = fmt.Errorf("call at %v: tracer opened no root", v0)
		} else {
			p.err = p.r.attr.addRoot(root, d, read)
		}
	}
	return d
}

// hostOnly times a measured-phase call that does not touch virtual
// time (ring Prep*).
func (p *pass) hostOnly(fn func()) {
	h0 := time.Now()
	if p.tr != nil {
		pprof.SetGoroutineLabels(p.inCall)
	}
	fn()
	if p.tr != nil {
		pprof.SetGoroutineLabels(p.outCall)
	}
	p.r.hostNs += int64(time.Since(h0))
}

// reap runs a ring Reap in the measured phase. Its wait is booked in its
// own bucket, never in a layer: nothing in the stack runs while the
// reaper waits.
func (p *pass) reap(tl *simtime.Timeline, ring *crosslib.Ring, n int) []crosslib.RingCQE {
	var cqes []crosslib.RingCQE
	v0 := tl.Now()
	p.hostOnly(func() { cqes = ring.Reap(tl, n) })
	d := tl.Now().Sub(v0)
	p.r.measuredNs += int64(d)
	if p.r.attr != nil {
		p.r.attr.addReap(d)
	}
	return cqes
}

// fail records a failed operation.
func (p *pass) fail(format string, args ...any) {
	if p.warming {
		p.r.warmFailed++
	} else {
		p.r.failed++
	}
	if p.r.firstFailure == "" {
		p.r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// countOp counts one client operation.
func (p *pass) countOp() {
	if p.warming {
		p.r.warmOps++
	} else {
		p.r.ops++
	}
}

// finish computes the determinism digest over every virtual output.
func (p *pass) finish(workload string, seed int64) {
	if p.ref != nil {
		p.r.fillNs, p.r.fillKB = p.ref.fillNs, p.ref.fillKB
	}
	d := newDigest()
	d.bytes([]byte(workload))
	d.ints(seed, p.r.ops, p.r.failed, p.r.warmOps, p.r.warmFailed, p.r.readBytes, p.r.writeBytes,
		p.r.spanNs, p.r.measuredNs)
	d.ints(int64(len(p.r.readLat)))
	d.ints(p.r.readLat...)
	d.ints(int64(len(p.r.writeLat)))
	d.ints(p.r.writeLat...)
	d.ints(int64(len(p.r.fsyncLat)))
	d.ints(p.r.fsyncLat...)
	d.ints(p.r.counts[:]...)
	p.r.digest = d.sum()
	if a := p.r.attr; a != nil {
		t := newDigest()
		t.ints(a.layers[:]...)
		for _, cat := range sortedKeys(a.cats) {
			t.bytes([]byte(cat))
			t.ints(a.cats[cat])
		}
		t.ints(a.reapWait, a.total, a.readRoots, a.lateRoots,
			p.r.prefetchIns, p.r.prefetchUsed, p.r.prefetchWasted)
		p.r.traceDigest = t.sum()
	}
}
