package main

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// workload is one named load: its input generator and the pass that
// drives a fresh system with that input.
type workload struct {
	name string
	gen  func(seed int64) any
	run  func(p *pass, in any) error
}

var workloads = []workload{
	{"seq-stream", func(s int64) any { return genSeq(s) }, func(p *pass, in any) error { return runSeq(p, in.(seqInput)) }},
	{"zipf-point", func(s int64) any { return genZipf(s) }, func(p *pass, in any) error { return runZipf(p, in.(zipfInput)) }},
	{"tenants-rw", func(s int64) any { return genTenants(s) }, func(p *pass, in any) error { return runTenants(p, in.(tenantsInput)) }},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// syncReader issues synchronous reads through one crosslib.File and
// checks every byte against the reference.
type syncReader struct {
	p    *pass
	ref  *reference
	f    *crosslib.File
	ino  int64
	tl   *simtime.Timeline
	buf  []byte
	want []byte
}

func (s *syncReader) read(off, n int64) {
	p := s.p
	var got int
	var err error
	d := p.call(s.tl, telemetry.OpRead, s.ino, true, func() { got, err = s.f.ReadAt(s.tl, s.buf[:n], off) })
	p.countOp()
	if !p.warming {
		p.r.readLat = append(p.r.readLat, int64(d))
		p.r.readBytes += int64(got)
	} else {
		p.pauseSetup()
		defer p.resumeSetup()
	}
	s.verify(off, n, got, err)
}

// verify checks the outcome of the read of n bytes at off that left got
// bytes in s.buf.
func (s *syncReader) verify(off, n int64, got int, err error) {
	s.ref.readAt(0, s.want[:n], off)
	switch {
	case err != nil:
		s.p.fail("read %d@%d: %v", n, off, err)
	case int64(got) != n:
		s.p.fail("read %d@%d: short read %d", n, off, got)
	case !bytes.Equal(s.buf[:n], s.want[:n]):
		s.p.fail("read %d@%d: bytes differ from the reference", n, off)
	}
}

// openReader builds the system for a single-file read workload and
// opens the file cold; everything up to the open is set-up.
func openReader(p *pass, ref *reference, cacheBytes, fileBytes int64, maxRead int64, reads int) (*syncReader, error) {
	s := &syncReader{p: p, ref: ref, buf: make([]byte, maxRead), want: make([]byte, maxRead)}
	p.r.readLat = make([]int64, 0, reads)
	p.startSetup()
	sys := p.build(cacheBytes)
	s.tl = sys.Timeline()
	name := ref.files[0].Name()
	if err := sys.CreateSynthetic(s.tl, name, fileBytes); err != nil {
		return nil, err
	}
	sys.DropAllCaches(s.tl)
	f, err := sys.Open(s.tl, name)
	if err != nil {
		return nil, err
	}
	s.f = f
	s.ino = f.Kernel().Inode().ID()
	return s, nil
}

// runSeq: one cold reader streams the file front to back.
func runSeq(p *pass, in seqInput) error {
	ref, err := newReference([]string{"seq-stream"}, seqFileBytes)
	if err != nil {
		return err
	}
	p.ref = ref
	s, err := openReader(p, ref, seqCacheBytes, seqFileBytes, seqMaxRead, len(in.sizes))
	if err != nil {
		return err
	}
	// Benchmark-side state stays live through the heap measurement.
	defer runtime.KeepAlive(s)
	p.beginMeasured()
	t0 := s.tl.Now()
	off := int64(0)
	for _, n := range in.sizes {
		s.read(off, n)
		off += n
	}
	p.r.spanNs = int64(s.tl.Now().Sub(t0))
	return p.endMeasured()
}

// runZipf: zipfian point reads; the warm-up reads are set-up.
func runZipf(p *pass, in zipfInput) error {
	ref, err := newReference([]string{"zipf-point"}, zipfFileBytes)
	if err != nil {
		return err
	}
	p.ref = ref
	s, err := openReader(p, ref, zipfCacheBytes, zipfFileBytes, zipfIO, len(in.offs))
	if err != nil {
		return err
	}
	defer runtime.KeepAlive(s)
	for _, off := range in.warm {
		s.read(off, zipfIO)
	}
	p.beginMeasured()
	t0 := s.tl.Now()
	for _, off := range in.offs {
		s.read(off, zipfIO)
	}
	p.r.spanNs = int64(s.tl.Now().Sub(t0))
	return p.endMeasured()
}

// tenant is one tenants-rw client: its own timeline, file, ring, read
// buffers and reference copy of the file.
type tenant struct {
	tl     *simtime.Timeline
	f      *crosslib.File
	ino    int64
	ring   *crosslib.Ring
	bufs   [][]byte
	ref    []byte
	done   int // batches completed
	start  simtime.Time
	cqByOp []crosslib.RingCQE
}

// runTenants: four ring tenants in a closed loop; the loop always
// advances the tenant whose virtual clock is earliest, so the run is
// deterministic from one goroutine.
func runTenants(p *pass, in tenantsInput) error {
	names := make([]string, tenants)
	for t := range names {
		names[t] = fmt.Sprintf("tenant-%d", t)
	}
	ref, err := newReference(names, tenantFileBytes)
	if err != nil {
		return err
	}
	p.ref = ref
	var ts [tenants]*tenant
	defer runtime.KeepAlive(&ts)
	for t := range ts {
		ts[t] = &tenant{ref: make([]byte, tenantFileBytes), cqByOp: make([]crosslib.RingCQE, tenantBatchOps)}
		ref.readAt(t, ts[t].ref, 0)
		for i := 0; i < tenantBatchOps; i++ {
			ts[t].bufs = append(ts[t].bufs, make([]byte, tenantIO))
		}
	}
	batches := len(in.batches[0])
	p.r.readLat = make([]int64, 0, tenants*batches*tenantBatchReads)
	p.r.writeLat = make([]int64, 0, tenants*batches*(tenantBatchOps-tenantBatchReads))
	p.r.fsyncLat = make([]int64, 0, tenants*batches/tenantFsyncEvery)

	p.startSetup()
	sys := p.build(tenantCacheBytes)
	setup := sys.Timeline()
	for t, tn := range ts {
		if err := sys.CreateSynthetic(setup, names[t], tenantFileBytes); err != nil {
			return err
		}
		tn.tl = sys.Timeline()
		if tn.f, err = sys.Open(tn.tl, names[t]); err != nil {
			return err
		}
		tn.ino = tn.f.Kernel().Inode().ID()
		// Ring tenant IDs start at 1: tenant 0 is untagged I/O.
		tn.ring = sys.Lib().NewRing(t+1, tenantBatchOps)
	}
	p.beginMeasured()
	for _, tn := range ts {
		tn.start = tn.tl.Now()
	}
	for {
		var next *tenant
		var id int
		for t, tn := range ts {
			if tn.done < len(in.batches[t]) && (next == nil || tn.tl.Now() < next.tl.Now()) {
				next, id = tn, t
			}
		}
		if next == nil {
			break
		}
		if err := runBatch(p, next, in.batches[id][next.done], in.pool); err != nil {
			return err
		}
	}
	first, last := ts[0].start, ts[0].tl.Now()
	var busy int64
	for _, tn := range ts {
		first = min(first, tn.start)
		last = max(last, tn.tl.Now())
		busy += int64(tn.tl.Now().Sub(tn.start))
	}
	p.r.spanNs = int64(last.Sub(first))
	if busy != p.r.measuredNs {
		return fmt.Errorf("tenant timelines advanced %d ns, calls account for %d ns", busy, p.r.measuredNs)
	}
	for _, tn := range ts {
		tn.ring.Close()
	}
	return p.endMeasured()
}

// runBatch stages one batch on the tenant's ring, submits it as one
// crossing, reaps every completion, checks it, and fsyncs every
// tenantFsyncEvery batches. A refused SQE or a missing completion leaves
// the ring in an unknown state and ends the pass.
func runBatch(p *pass, tn *tenant, ops []tenantOp, pool []byte) error {
	refused := 0
	p.hostOnly(func() {
		for i, op := range ops {
			var err error
			if op.write {
				err = tn.ring.PrepWrite(tn.f, pool[op.data:op.data+tenantIO], op.off, uint64(i))
			} else {
				err = tn.ring.PrepRead(tn.f, tn.bufs[i], op.off, uint64(i))
			}
			if err != nil {
				refused++
			}
		}
	})
	t0 := tn.tl.Now()
	var cqes []crosslib.RingCQE
	if refused == 0 {
		p.call(tn.tl, telemetry.OpRingEnter, tn.ino, true, func() { tn.ring.Submit(tn.tl) })
		cqes = p.reap(tn.tl, tn.ring, len(ops))
	}
	seen := 0
	for _, cq := range cqes {
		if cq.User < uint64(len(ops)) {
			tn.cqByOp[cq.User] = cq
			seen++
		}
	}
	if refused > 0 || seen != len(ops) {
		for range ops {
			p.countOp()
		}
		p.fail("ring refused %d SQEs, reaped %d of %d completions", refused, seen, len(ops))
		return fmt.Errorf("tenant batch %d: ring refused %d SQEs, reaped %d of %d completions",
			tn.done, refused, seen, len(ops))
	}
	for i, op := range ops {
		p.countOp()
		cq := tn.cqByOp[i]
		lat := int64(cq.Done.Sub(t0))
		switch {
		case cq.Err != nil:
			p.fail("ring op %d@%d: %v", i, op.off, cq.Err)
		case cq.N != tenantIO:
			p.fail("ring op %d@%d: %d of %d bytes", i, op.off, cq.N, tenantIO)
		case op.write:
			copy(tn.ref[op.off:], pool[op.data:op.data+tenantIO])
			p.r.writeLat = append(p.r.writeLat, lat)
			p.r.writeBytes += tenantIO
		case !bytes.Equal(tn.bufs[i], tn.ref[op.off:op.off+tenantIO]):
			p.fail("ring read @%d: bytes differ from the reference", op.off)
		default:
			p.r.readLat = append(p.r.readLat, lat)
			p.r.readBytes += tenantIO
		}
	}
	tn.done++
	if tn.done%tenantFsyncEvery == 0 {
		var err error
		d := p.call(tn.tl, telemetry.OpFsync, tn.ino, false, func() { err = tn.f.Fsync(tn.tl) })
		p.countOp()
		p.r.fsyncLat = append(p.r.fsyncLat, int64(d))
		if err != nil {
			p.fail("fsync: %v", err)
		}
	}
	return nil
}
