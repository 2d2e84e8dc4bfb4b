package experiments

import (
	"bytes"
	"fmt"
	"math/rand"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/faultinject"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Chaos is the fault-injection resilience harness: it replays the same
// deterministic read/write workload under a sweep of fault plans and
// checks graceful degradation — every successfully returned byte is
// correct, failed I/O never poisons the cache (the telemetry audit's
// poisoning guard reconciles), transient faults are absorbed by
// retries, persistent faults surface as errors and trip the per-file
// circuit breaker, and the faulty cells stay within a bounded slowdown
// of the fault-free baseline. The transient cell runs twice to prove
// the virtual-time schedule is reproducible.
func Chaos(o Options) (*Table, error) {
	size := int64(32 << 20)
	if o.Quick {
		size = 8 << 20
	}
	seed := uint64(o.Seed + 1) // plan seed 0 is fine, but keep cells distinct from default hashes

	baseline, err := chaosCell(o, size, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos baseline: %w", err)
	}
	if baseline.readErrs != 0 || baseline.injected != 0 {
		return nil, fmt.Errorf("chaos baseline: %d read errors / %d injected faults on a fault-free device",
			baseline.readErrs, baseline.injected)
	}

	// 10% of read sites and 2% of write sites glitch transiently, plus a
	// "brownout" over the blocks backing the file's second quarter where
	// every read glitches. Scattered sites clear after 2 attempts; the
	// brownout needs 4, so one library prefetch (initial + RetryMax=1
	// retry) fails definitively and the *next* prefetch of the returned
	// range fails definitively again — two consecutive failures, tripping
	// the breaker — while the cell's DemandRetries=4 keeps demand reads
	// byte-correct. That walks the breaker through trip -> cool-off ->
	// probe -> recovery deterministically at every scale.
	transientPlan := &faultinject.Plan{
		Seed:             seed,
		ReadFailProb:     0.10,
		WriteFailProb:    0.02,
		TransientFrac:    1.0,
		TransientRepeats: 2,
		// Filled per-cell from the file's physical mapping; see chaosCell.
		Ranges: []faultinject.RangeFault{{Class: faultinject.Transient, Reads: true, Repeats: 4}},
	}
	transient, err := chaosCell(o, size, transientPlan)
	if err != nil {
		return nil, fmt.Errorf("chaos transient10: %w", err)
	}
	again, err := chaosCell(o, size, transientPlan)
	if err != nil {
		return nil, fmt.Errorf("chaos transient10 rerun: %w", err)
	}

	persistent, err := chaosCell(o, size, &faultinject.Plan{
		Seed: seed,
		// Filled per-cell from the file's physical mapping; see chaosCell.
		Ranges: []faultinject.RangeFault{{Class: faultinject.Persistent, Reads: true}},
	})
	if err != nil {
		return nil, fmt.Errorf("chaos persistent-range: %w", err)
	}

	// Graceful-degradation assertions.
	if transient.readErrs != 0 {
		return nil, fmt.Errorf("transient10: %d read errors escaped the retry budget", transient.readErrs)
	}
	if transient.stats.PrefetchRetries == 0 {
		return nil, fmt.Errorf("transient10: no prefetch retries under a 10%% fault rate")
	}
	if transient.stats.BreakerTrips == 0 || transient.stats.BreakerRecoveries == 0 {
		return nil, fmt.Errorf("transient10: breaker trips=%d recoveries=%d, want both >= 1",
			transient.stats.BreakerTrips, transient.stats.BreakerRecoveries)
	}
	if transient.lost != 0 {
		return nil, fmt.Errorf("transient10: %d writeback pages lost although all faults clear", transient.lost)
	}
	const slowdownBound = 3.0
	if float64(transient.makespan) > slowdownBound*float64(baseline.makespan) {
		return nil, fmt.Errorf("transient10: makespan %v > %.1fx baseline %v",
			transient.makespan, slowdownBound, baseline.makespan)
	}
	if transient != again {
		return nil, fmt.Errorf("transient10 not deterministic:\n run1=%+v\n run2=%+v", transient, again)
	}
	if persistent.readErrs == 0 {
		return nil, fmt.Errorf("persistent-range: no read error surfaced from a dead range")
	}
	if persistent.stats.BreakerTrips == 0 {
		return nil, fmt.Errorf("persistent-range: breaker never tripped")
	}

	tbl := &Table{
		ID:    "chaos",
		Title: "Fault-plan sweep: correctness and degradation vs fault-free baseline",
		Columns: []string{"plan", "makespan(ms)", "slowdown", "faults", "read-errs",
			"retries", "trips", "recoveries", "dropped", "lost-pages"},
	}
	for _, c := range []struct {
		name string
		r    chaosResult
	}{{"baseline", baseline}, {"transient10", transient}, {"persistent-range", persistent}} {
		tbl.AddRow(c.name,
			fmt.Sprintf("%.2f", float64(c.r.makespan)/float64(simtime.Millisecond)),
			ratio(float64(c.r.makespan), float64(baseline.makespan)),
			fmt.Sprintf("%d", c.r.injected),
			fmt.Sprintf("%d", c.r.readErrs),
			fmt.Sprintf("%d", c.r.stats.PrefetchRetries),
			fmt.Sprintf("%d", c.r.stats.BreakerTrips),
			fmt.Sprintf("%d", c.r.stats.BreakerRecoveries),
			fmt.Sprintf("%d", c.r.stats.DroppedBreaker),
			fmt.Sprintf("%d", c.r.lost))
	}
	tbl.Note("every successfully returned byte verified against ground truth; telemetry audit (incl. cache-poisoning guard) passed in all cells")
	tbl.Note("transient10 executed twice with identical virtual-time schedules (determinism check)")
	return tbl, nil
}

// chaosResult is the comparable observable vector of one cell; two runs
// of the same plan must produce identical values.
type chaosResult struct {
	makespan simtime.Duration
	readErrs int64
	injected int64
	lost     int64
	stats    crosslib.Stats
}

// chaosCell runs the standard chaos workload under one fault plan
// (nil = fault-free) and verifies byte-correctness and the telemetry
// audit before returning.
func chaosCell(o Options, size int64, plan *faultinject.Plan) (chaosResult, error) {
	opt := crossprefetch.CrossPredictOpt.Options()
	// An aggressive breaker so a 10% fault plan exercises the full
	// open -> cool-off -> probe -> close cycle within one cell. The
	// prefetch window is capped well below the brownout span so the
	// brownout produces *consecutive* failing calls at every scale (one
	// giant window would fail once, succeed on the next, and never trip
	// a consecutive-failure breaker).
	opt.RetryMax = 1
	opt.BreakerThreshold = 2
	opt.BreakerCooloff = 2 * simtime.Millisecond
	opt.FaultSeed = o.Seed
	opt.MaxPrefetchBytes = 512 << 10
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		Approach:    crossprefetch.CrossPredictOpt,
		MemoryBytes: size * 8, // no memory pressure: isolate fault effects
		LibOptions:  &opt,
		Telemetry:   true,
		// One more blocking retry than default so the brownout's
		// Repeats=4 sites stay inside the demand-read budget.
		DemandRetries: 4,
	})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "chaos.dat", size); err != nil {
		return chaosResult{}, err
	}
	truth, err := sys.FS().Open("chaos.dat")
	if err != nil {
		return chaosResult{}, err
	}

	if plan != nil {
		p := *plan
		if len(p.Ranges) == 1 && p.Ranges[0].Hi == 0 {
			// Range placeholder: kill the device blocks backing a
			// 64-block (256KB) stretch starting a quarter into the
			// file, wherever the allocator put them. That spans a
			// handful of background-prefetch windows — enough
			// consecutive definitive failures to trip the breaker —
			// while keeping the expensive demand-retried region small
			// so degradation stays bounded.
			bs := sys.FS().BlockSize()
			blocks := size / bs
			cls, dir := p.Ranges[0].Class, p.Ranges[0]
			p.Ranges = p.Ranges[:0]
			for _, pr := range truth.MapRange(blocks/4, blocks/4+64) {
				p.Ranges = append(p.Ranges, faultinject.RangeFault{
					Lo: pr.Phys * bs, Hi: (pr.Phys + pr.Count) * bs,
					Class: cls, Reads: dir.Reads, Writes: dir.Writes,
					Repeats: dir.Repeats,
				})
			}
		}
		sys.Stack().SetFaultInjector(faultinject.New(p))
	}

	var res chaosResult
	f, err := sys.Open(tl, "chaos.dat")
	if err != nil {
		return res, err
	}
	const chunk = 16 << 10
	buf := make([]byte, chunk)
	want := make([]byte, chunk)
	verify := func(off int64, n int) error {
		truth.ReadAt(want[:n], off)
		if !bytes.Equal(buf[:n], want[:n]) {
			return fmt.Errorf("corrupt data at offset %d", off)
		}
		return nil
	}

	// Phase 1: sequential scan of the whole file.
	for off := int64(0); off < size; off += chunk {
		n, err := f.ReadAt(tl, buf, off)
		if err != nil {
			res.readErrs++
			continue
		}
		if err := verify(off, n); err != nil {
			return res, err
		}
	}
	// Phase 2: seeded random reads.
	rng := rand.New(rand.NewSource(o.Seed + 17))
	reads := int64(256)
	if o.Quick {
		reads = 64
	}
	for i := int64(0); i < reads; i++ {
		off := rng.Int63n(size/chunk) * chunk
		n, err := f.ReadAt(tl, buf, off)
		if err != nil {
			res.readErrs++
			continue
		}
		if err := verify(off, n); err != nil {
			return res, err
		}
	}
	// Phase 3: write a fresh file, fsync, read it back.
	out, err := sys.Create(tl, "chaos.out")
	if err != nil {
		return res, err
	}
	wbuf := make([]byte, chunk)
	outSize := size / 4
	for off := int64(0); off < outSize; off += chunk {
		for i := range wbuf {
			wbuf[i] = byte(off>>12) + byte(i)
		}
		if _, err := out.WriteAt(tl, wbuf, off); err != nil {
			return res, fmt.Errorf("write at %d: %w", off, err)
		}
	}
	if err := out.Fsync(tl); err != nil {
		return res, fmt.Errorf("fsync: %w", err)
	}
	for off := int64(0); off < outSize; off += chunk {
		n, err := out.ReadAt(tl, buf, off)
		if err != nil {
			res.readErrs++
			continue
		}
		for i := 0; i < n; i++ {
			if buf[i] != byte(off>>12)+byte(i) {
				return res, fmt.Errorf("corrupt written data at offset %d", off+int64(i))
			}
		}
	}
	f.Close(tl)
	out.Close(tl)

	// Reconcile every layer's account of the run — including the
	// cache-poisoning guard (failed reads must not have inserted pages).
	if err := sys.AuditTelemetry(); err != nil {
		return res, err
	}
	res.makespan = tl.Elapsed()
	res.stats = sys.Lib().Stats()
	res.injected = sys.Stack().Stats().InjectedFaults
	res.lost = sys.Telemetry().CounterValue(telemetry.CtrWritebackLostPages)
	return res, nil
}
