package blockdev

import (
	"testing"

	"repro/internal/simtime"
)

// planInjector is the differential checks' fault plan. Every request
// hashes (op, off, bytes) to a verdict: persistent failure, transient
// failure for its first few attempts, a latency stall, or nothing, at
// rates drawn from one 16-bit plan. Each side of a comparison gets its
// own instance, so equal verdicts also prove equal injector call
// sequences.
type planInjector struct {
	plan      uint16
	tries     map[[3]int64]int
	lastStall simtime.Duration
}

func newPlanInjector(plan uint16) *planInjector {
	return &planInjector{plan: plan, tries: map[[3]int64]int{}}
}

func (p *planInjector) Inject(op Op, off, bytes int64) Fault {
	h := uint64(p.plan)<<40 ^ uint64(off)*0x9e3779b97f4a7c15 ^ uint64(bytes)<<7 ^ uint64(op)
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	persistent, transient := int(p.plan&0xf), int(p.plan>>4&0xf)
	stalls, repeats := int(p.plan>>8&0xf), 1+int(p.plan>>12&3)
	var f Fault
	if int(h>>8%16) < stalls {
		f.Stall = simtime.Duration(1+h>>16%50) * simtime.Microsecond
	}
	switch r := int(h % 64); {
	case r < persistent:
		f.Err = ErrInjected
	case r < persistent+transient:
		k := [3]int64{int64(op), off, bytes}
		if p.tries[k] < repeats {
			p.tries[k]++
			f.Err = transientErr{}
		}
	}
	p.lastStall = f.Stall
	return f
}

// widthOnePair drives a width-1 stack and a bare device through the same
// operations. The stack side uses the kernel's submission API (StackPlug,
// Write, WriteAsync); the device side uses Device.Access/AccessAsync, a
// member queue (Plug), and reference models of the stack plug's
// passthrough primitives. Any divergence in completion time, error,
// dispatch flags, backlog or stats fails the test.
type widthOnePair struct {
	t           testing.TB
	st          *Stack
	dev         *Device
	stl, dtl    *simtime.Timeline
	dinj        *planInjector
	pass, batch *StackPlug
	dplug       *Plug
	horizon     simtime.Time // reference AsyncPrefetchChunk horizon
	rp          RetryPolicy
}

func newWidthOnePair(t testing.TB, plan uint16) *widthOnePair {
	cfg := PlugConfig{
		Plugged:          true,
		QueueDepth:       1 + 2*int(plan>>14),
		MergeWindowBytes: 32 << 10 << (plan >> 14),
	}
	w := &widthOnePair{
		t:    t,
		st:   NewStack(StackConfig{Local: testConfig()}),
		dev:  New(testConfig()),
		stl:  simtime.NewTimeline(0),
		dtl:  simtime.NewTimeline(0),
		dinj: newPlanInjector(plan),
		rp:   RetryPolicy{Max: 2, Base: 10 * simtime.Microsecond, Cap: 40 * simtime.Microsecond},
	}
	w.st.SetFaultInjector(newPlanInjector(plan))
	w.dev.SetFaultInjector(w.dinj)
	w.pass = w.st.NewPlug(PlugConfig{})
	w.batch = w.st.NewPlug(cfg)
	w.dplug = w.dev.newPlug(cfg)
	return w
}

// refPrefetchChunk models StackPlug.AsyncPrefetchChunk on the bare
// device: admission against the device backlog and the caller's own
// horizon, one combined-lane command, one plug segment booked.
func (w *widthOnePair) refPrefetchChunk(at simtime.Time, off, n int64, limit simtime.Duration) (simtime.Time, bool, error) {
	d := w.dev
	if limit > 0 {
		b := d.Backlog(at)
		if h := w.horizon.Sub(at); h > b {
			b = h
		}
		if b > limit {
			return 0, true, nil
		}
	}
	done, err := d.AccessAsync(at, OpRead, off, n)
	if err != nil {
		return done, false, err
	}
	cfg := d.Config()
	hold := cfg.CmdOverhead + d.transfer(n, cfg.ReadBandwidth)
	end := done.Add(-cfg.ReadLatency - w.dinj.lastStall)
	if w.horizon = w.horizon.Add(hold); end > w.horizon {
		w.horizon = end
	}
	d.countPlug(1, 1, n)
	return done, false, nil
}

// step decodes and runs one operation from four script bytes.
func (w *widthOnePair) step(i int, kind, a, b, c byte) {
	t := w.t
	off, n := int64(a)*4096, (int64(b%32)+1)*4096
	at := w.stl.Now().Add(simtime.Duration(c%8) * 10 * simtime.Microsecond)
	limit := simtime.Duration(c>>3%4) * 200 * simtime.Microsecond
	same := func(what string, s, d any) {
		t.Helper()
		if s != d {
			t.Fatalf("op %d (kind %d off %d bytes %d): %s: stack %v, device %v", i, kind%8, off, n, what, s, d)
		}
	}
	switch kind % 8 {
	case 0: // passthrough sync read
		serr := w.pass.SyncRead(w.stl, off, n)
		derr := w.dev.Access(w.dtl, OpRead, off, n)
		if derr == nil {
			w.dev.countPlug(1, 1, n)
		}
		same("err", serr, derr)
	case 1: // blocking write
		same("err", w.st.Write(w.stl, off, n), w.dev.Access(w.dtl, OpWrite, off, n))
	case 2: // async read
		sd, serr := w.st.accessAsync(at, OpRead, off, n)
		dd, derr := w.dev.AccessAsync(at, OpRead, off, n)
		same("done", sd, dd)
		same("err", serr, derr)
	case 3: // async write
		sd, serr := w.st.WriteAsync(at, off, n)
		dd, derr := w.dev.AccessAsync(at, OpWrite, off, n)
		same("done", sd, dd)
		same("err", serr, derr)
	case 4: // unplugged prefetch chunk
		sd, sc, serr := w.pass.AsyncPrefetchChunk(at, off, n, limit)
		dd, dc, derr := w.refPrefetchChunk(at, off, n, limit)
		same("done", sd, dd)
		same("congested", sc, dc)
		same("err", serr, derr)
	case 5, 6: // plugged batch, blocking or async unplug
		w.batch.Reset()
		w.dplug.Reset()
		// Mostly back- and front-adjacent segments around a growing
		// extent [lo, hi), so commands merge up to the window; the rest
		// land anywhere and may bridge two commands.
		x := uint32(a)<<16 | uint32(b)<<8 | uint32(c)
		lo, hi := off, off
		for k := 0; k < 1+int(c%6); k++ {
			x = x*1103515245 + 12345
			soff, sn := int64(x>>8%48)*4096, int64(1+x>>16%8)*4096
			switch x >> 28 % 4 {
			case 0:
			case 1:
				if lo >= sn {
					lo -= sn
					soff = lo
					break
				}
				fallthrough
			default:
				soff, hi = hi, hi+sn
			}
			w.batch.Add(OpRead, soff, sn, int64(k))
			w.dplug.Add(OpRead, soff, sn, int64(k))
		}
		if kind%8 == 5 {
			same("flush err", w.batch.FlushSync(w.stl, w.rp), w.dplug.FlushSync(w.dtl, w.rp))
		} else {
			w.batch.FlushAsync(at, limit)
			w.dplug.FlushAsync(at, limit)
		}
		same("retries", w.batch.Retries(), w.dplug.Retries())
		same("commands", w.batch.DispatchedCommands(), w.dplug.DispatchedCommands())
		ss, ds, rqs := w.batch.Segments(), w.dplug.Segments(), w.batch.Requests()
		same("segments", len(ss), len(ds))
		same("requests", len(rqs), len(ds))
		for k := range ds {
			same("segment", ss[k], ds[k])
			rq, s := rqs[k], ds[k]
			same("request", [4]any{rq.Issued, rq.Congested, rq.Err, rq.Done}, [4]any{s.Issued, s.Congested, s.Err, s.Done})
			same("partial", rq.Partial, false)
			same("pieces", len(rq.Pieces), 1)
			same("piece", rq.Pieces[0], RequestPiece{Bytes: s.Bytes, Issued: s.Issued, Err: s.Err, Done: s.Done})
		}
	case 7: // a fresh request's passthrough plug (the vfs pools and resets them)
		w.pass.Reset()
		w.horizon = 0
	}
	same("now", w.stl.Now(), w.dtl.Now())
	same("backlog", w.st.Backlog(at), w.dev.Backlog(at))
	same("backlog for", w.st.BacklogFor(at, off, n), w.dev.Backlog(at))
	same("stats", w.st.Stats(), w.dev.Stats())
}

// run executes a script of four-byte operations (at most 256).
func (w *widthOnePair) run(script []byte) {
	for i := 0; i+4 <= len(script) && i < 4*256; i += 4 {
		w.step(i/4, script[i], script[i+1], script[i+2], script[i+3])
	}
}

// A width-1 stack must be byte- and timing-identical to the bare device
// for every submission shape the kernel uses — sync reads and writes,
// async reads and writes, unplugged prefetch chunks, and plugged batches
// with blocking and async unplugs — with and without a fault plan.
func TestStackWidthOneIdenticalToRawDevice(t *testing.T) {
	var script []byte
	for r := 0; r < 6; r++ {
		for kind := byte(0); kind < 8; kind++ {
			script = append(script, kind, byte(17*r+3*int(kind)), byte(5*r+int(kind)), byte(11*r+7*int(kind)))
		}
	}
	for _, plan := range []uint16{0, 0x0f00, 0x1433, 0xa6a4, 0x7f88} {
		w := newWidthOnePair(t, plan)
		w.run(script)
		if s := w.dev.Stats(); s.MergedSegments == 0 || (plan&0xff != 0) != (s.InjectedFaults > 0) {
			t.Fatalf("plan %#x: script lost its coverage of merges or faults: %+v", plan, s)
		}
	}
}

// FuzzStackWidthOneVsDevice is the differential form of the test above:
// a random fault plan and operation script, width-1 stack vs bare device.
func FuzzStackWidthOneVsDevice(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0, 31, 0, 1, 64, 15, 0, 2, 0, 31, 3, 4, 32, 7, 9, 5, 1, 2, 5, 6, 3, 4, 5})
	f.Add(uint16(0x1433), []byte{5, 0, 1, 5, 0, 0, 3, 0, 6, 9, 9, 9, 4, 2, 2, 24, 7, 0, 0, 0, 4, 2, 2, 24})
	f.Fuzz(func(t *testing.T, plan uint16, script []byte) {
		newWidthOnePair(t, plan).run(script)
	})
}
