package vfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Differential tests for the shared I/O body: the synchronous read path
// (passthrough and plugged) and the ring read path must agree on every
// byte, and the prefetch window clamp must be one rule.

// pathsKernel is one frontend of FuzzReadPathsAgree: a kernel with its
// own recorder and clock, reading through ReadAt or through RingEnter.
type pathsKernel struct {
	name  string
	v     *VFS
	rec   *telemetry.Recorder
	inj   *faultinject.Injector
	tl    *simtime.Timeline
	files [2]*File
	ring  bool
}

func newPathsKernel(t *testing.T, name string, plugged, ring bool, plan faultinject.Plan) *pathsKernel {
	t.Helper()
	cfg := DefaultConfig()
	cfg.AllowLimitOverride = true
	cfg.Sched.Plugged = plugged
	// 1024 pages (4MB): the two files plus the 2MB+ operations overflow
	// it, so reclaim and writeback run between reads.
	v := newSchedKernel(t, cfg, 1024)
	k := &pathsKernel{name: name, v: v, rec: telemetry.NewRecorder(0), tl: simtime.NewTimeline(0), ring: ring}
	v.SetTelemetry(k.rec)
	v.Cache().SetTelemetry(k.rec)
	v.Stack().SetTelemetry(k.rec)
	for i := range k.files {
		f, err := v.Create(k.tl, fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		k.files[i] = f
	}
	if plan.ReadFailProb > 0 || plan.StallProb > 0 {
		k.inj = faultinject.New(plan)
		v.Stack().SetFaultInjector(k.inj)
	}
	return k
}

// write applies a buffered write with the fault plan lifted (an RMW edge
// fetch is a read and could fail, which would fork the file contents the
// kernels are compared over): through a RingWrite SQE on the ring kernel,
// WriteAt on the others.
func (k *pathsKernel) write(t *testing.T, fi int, data []byte, off int64) {
	t.Helper()
	k.v.Stack().SetFaultInjector(nil)
	defer func() {
		if k.inj != nil {
			k.v.Stack().SetFaultInjector(k.inj)
		}
	}()
	if k.ring {
		cq := k.v.RingEnter(k.tl, 1, []RingSQE{{F: k.files[fi], Op: RingWrite, Off: off, Buf: data}})
		if cq[0].Err != nil || cq[0].N != int64(len(data)) {
			t.Fatalf("%s: ring write %d@%d: n=%d err=%v", k.name, len(data), off, cq[0].N, cq[0].Err)
		}
		k.tl.WaitUntil(cq[0].Done, simtime.WaitIO)
		return
	}
	if n, err := k.files[fi].WriteAt(k.tl, data, off); err != nil || n != len(data) {
		t.Fatalf("%s: write %d@%d: n=%d err=%v", k.name, len(data), off, n, err)
	}
}

// read issues the reads [offs[i], offs[i]+n) of file fi — one ring_enter
// batch on the ring kernel, consecutive ReadAt calls on the others — and
// checks each against ref, the file in a reference file system. A read
// may fail only under a fault plan, and then returns no bytes.
func (k *pathsKernel) read(t *testing.T, fi int, offs []int64, n int64, ref *fs.Inode, faulty bool) {
	t.Helper()
	bufs := make([][]byte, len(offs))
	got := make([]int64, len(offs))
	errs := make([]error, len(offs))
	for i := range offs {
		bufs[i] = make([]byte, n)
	}
	if k.ring {
		sqes := make([]RingSQE, len(offs))
		for i, off := range offs {
			sqes[i] = RingSQE{F: k.files[fi], Op: RingRead, Off: off, Buf: bufs[i]}
		}
		for i, cq := range k.v.RingEnter(k.tl, 1, sqes) {
			got[i], errs[i] = cq.N, cq.Err
			if cq.Done > k.tl.Now() {
				k.tl.WaitUntil(cq.Done, simtime.WaitIO)
			}
		}
	} else {
		for i, off := range offs {
			m, err := k.files[fi].ReadAt(k.tl, bufs[i], off)
			got[i], errs[i] = int64(m), err
		}
	}
	for i, off := range offs {
		want := make([]byte, n)
		want = want[:ref.ReadAt(want, off)]
		if errs[i] != nil {
			if !faulty || got[i] != 0 {
				t.Fatalf("%s: read %d@%d of f%d: n=%d err=%v (fault plan on: %v)",
					k.name, n, off, fi, got[i], errs[i], faulty)
			}
			continue
		}
		if got[i] != int64(len(want)) {
			t.Fatalf("%s: read %d@%d of f%d: n=%d, want %d", k.name, n, off, fi, got[i], len(want))
		}
		if !bytes.Equal(bufs[i][:got[i]], want) {
			t.Fatalf("%s: read %d@%d of f%d returned wrong bytes", k.name, n, off, fi)
		}
	}
}

// audit reconciles the kernel's recorder: in particular the
// cache-poisoning guard (no clean page without a device read behind it)
// and device reads == demand + prefetch pages.
func (k *pathsKernel) audit(t *testing.T) {
	t.Helper()
	var tenants []telemetry.TenantLedger
	for _, ts := range k.v.Cache().TenantStats() {
		tenants = append(tenants, telemetry.TenantLedger{ID: ts.ID, Resident: ts.Resident,
			Inserted: ts.Inserted, Evicted: ts.Evicted})
	}
	if err := telemetry.Audit(k.rec.Snapshot(), telemetry.AuditInput{
		BlockSize:    k.v.BlockSize(),
		CacheUsed:    k.v.Cache().Used(),
		StrictDevice: true,
		Tenants:      tenants,
		HasTenants:   true,
	}); err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
}

// readFaultPlan decodes the fuzz plan word into a read-only fault plan:
// failure rate (0 = none), transient share and repeats, stall rate.
func readFaultPlan(plan uint16) faultinject.Plan {
	return faultinject.Plan{
		Seed:             uint64(plan),
		ReadFailProb:     float64(plan&0xf) / 40,
		TransientFrac:    float64(plan>>4&0xf) / 15,
		TransientRepeats: 1 + int(plan>>8&3),
		StallProb:        float64(plan>>10&7) / 16,
		Stall:            simtime.Duration(1+plan>>13) * 20 * simtime.Microsecond,
	}
}

// FuzzReadPathsAgree runs one script on three kernels over identical
// file contents — passthrough ReadAt, plugged ReadAt, and RingEnter
// reads — mixing unaligned writes (RMW edges), reads across EOF and
// holes, readahead_info, fsync, and fadvise(DONTNEED), under a fault
// plan on reads. Every successful read must return the bytes of a
// reference file system that saw the same writes, and a failed read
// must leave no page it did not fetch: each kernel's telemetry audit
// stays clean. The script is 4-byte ops (kind, a, b, c); the seed
// corpus is under testdata/fuzz.
func FuzzReadPathsAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, plan uint16, script []byte) {
		const bs = 4096
		if len(script) > 4*48 {
			script = script[:4*48]
		}
		fp := readFaultPlan(plan)
		faulty := fp.ReadFailProb > 0
		ks := []*pathsKernel{
			newPathsKernel(t, "passthrough", false, false, fp),
			newPathsKernel(t, "plugged", true, false, fp),
			newPathsKernel(t, "ring", false, true, fp),
		}
		refFS := fs.New(fs.LayoutExtent, bs, simtime.DefaultCosts())
		var ref [2]*fs.Inode
		for i := range ref {
			ino, err := refFS.Create(nil, fmt.Sprintf("f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			ref[i] = ino
		}
		for i := 0; i+4 <= len(script); i += 4 {
			kind, a, b, c := script[i]%8, script[i+1], script[i+2], script[i+3]
			fi := int(a & 1)
			// Unaligned, up to 64 blocks in: past EOF (opening a hole
			// on write) while the files are young.
			off := (int64(b)<<8 | int64(c)) * 131 % (64 * bs)
			switch kind {
			case 0, 1:
				data := make([]byte, 1+int64(a>>1)*397%(12*bs))
				for j := range data {
					data[j] = byte(i + j*7 + 1)
				}
				ref[fi].WriteAt(data, off)
				for _, k := range ks {
					k.write(t, fi, data, off)
				}
			case 2, 3:
				n := 1 + int64(a>>1)*331%(5*bs)
				offs := []int64{off}
				if kind == 3 {
					// A second, overlapping read in the same batch.
					offs = append(offs, off+n/2)
				}
				for _, k := range ks {
					k.read(t, fi, offs, n, ref[fi], faulty)
				}
			case 4:
				req := CacheInfoRequest{Offset: off, Bytes: int64(a>>1) * bs}
				if c&1 == 1 {
					req.LimitOverride = int64(b)
				}
				// Book the pages as a library would (clamped to the
				// file), so the lib == kernel identity can be audited.
				lo, hi := off/bs, min((off+req.Bytes+bs-1)/bs, ks[0].files[fi].Inode().Blocks())
				for _, k := range ks {
					if req.Bytes > 0 && hi > lo {
						k.rec.Add(telemetry.CtrLibIssuedPages, hi-lo)
					}
					k.files[fi].ReadaheadInfo(k.tl, req, nil)
				}
			case 5:
				// Write back, then drop the clean file from the cache so
				// later reads go to the device.
				for _, k := range ks {
					if err := k.files[fi].Fsync(k.tl); err != nil {
						t.Fatalf("%s: fsync with no write faults: %v", k.name, err)
					}
					k.files[fi].Fadvise(k.tl, AdvDontNeed, 0, 0)
				}
			case 6:
				n := int64(a>>1) * bs // 0 = to EOF
				for _, k := range ks {
					k.files[fi].Fadvise(k.tl, AdvDontNeed, off, n)
				}
			case 7:
				// Past the 2MB VFS request size, so extents split into
				// several chunks.
				n := int64(maxVFSRequest + (int(b)+1)*bs + int(c))
				if a&2 == 0 {
					for _, k := range ks {
						k.read(t, fi, []int64{off}, n, ref[fi], faulty)
					}
					continue
				}
				data := bytes.Repeat([]byte{byte(i + 1)}, int(n))
				ref[fi].WriteAt(data, off)
				for _, k := range ks {
					k.write(t, fi, data, off)
				}
			}
		}
		for _, k := range ks {
			k.audit(t)
		}
	})
}

// TestRingPrefetchClampMatchesReadaheadInfo: a ring prefetch SQE is
// granted exactly the pages readahead_info grants for the same range
// (LimitOverride = the range), across range sizes around the static cap
// and the byte budget, with limit override on and off, on an untiered
// stack (boost 1) and over a remote-resident extent of a tiered stack
// (boost > 1).
func TestRingPrefetchClampMatchesReadaheadInfo(t *testing.T) {
	const bs = 4096
	fileBytes := int64(24 << 20)
	for _, override := range []bool{false, true} {
		for _, tiered := range []bool{false, true} {
			newKernel := func() (*VFS, *File, *simtime.Timeline) {
				cfg := DefaultConfig()
				cfg.AllowLimitOverride = override
				cfg.MaxPrefetchBytes = 8 << 20
				var st blockdev.StackConfig
				if tiered {
					st.Tier = blockdev.TierConfig{
						Enabled:           true,
						Remote:            blockdev.RemoteNVMeConfigRTT(200 * simtime.Microsecond),
						RemoteFrac:        0.5,
						CrossTierPrefetch: true,
					}
				}
				costs := simtime.DefaultCosts()
				v := NewStack(cfg, fs.New(fs.LayoutExtent, bs, costs), blockdev.NewStack(st),
					pagecache.New(pagecache.Config{BlockSize: bs, CapacityPages: 1 << 20, Costs: costs}, nil))
				tl := simtime.NewTimeline(0)
				if _, err := v.FS().CreateSynthetic(tl, "x", fileBytes); err != nil {
					t.Fatal(err)
				}
				f, err := v.Open(tl, "x")
				if err != nil {
					t.Fatal(err)
				}
				return v, f, tl
			}
			// Start every range on the first boosted extent (tiered) or
			// at block 0 (untiered).
			probeV, probeF, _ := newKernel()
			start, boost := int64(0), int64(1)
			if tiered {
				ext := probeV.Stack().Config().Tier.ExtentBytes / bs
				for lo := int64(0); lo+ext <= probeF.ino.Blocks() && boost == 1; lo += ext {
					start, boost = lo, probeF.rangeBoost(lo, lo+ext)
				}
				if boost == 1 {
					t.Fatal("no remote-resident extent earns a boost")
				}
			}
			maxPages := probeV.cfg.MaxPrefetchBytes / bs
			for _, pages := range []int64{1, 31, 32, 33, 100, 32 * boost, 32*boost + 1, maxPages - 1, maxPages, maxPages + 1, 3 * maxPages / 2} {
				name := fmt.Sprintf("override=%v/boost=%d/pages=%d", override, boost, pages)
				_, sf, stl := newKernel()
				info := sf.ReadaheadInfo(stl, CacheInfoRequest{Offset: start * bs, Bytes: pages * bs,
					LimitOverride: pages, DisablePrefetch: true}, nil)
				rv, rf, rtl := newKernel()
				cq := rv.RingEnter(rtl, 0, []RingSQE{{F: rf, Op: RingPrefetch, Off: start * bs, Len: pages * bs}})
				if cq[0].Err != nil {
					t.Fatalf("%s: ring prefetch: %v", name, cq[0].Err)
				}
				if cq[0].N != info.RequestedPages {
					t.Errorf("%s: ring granted %d pages, readahead_info %d", name, cq[0].N, info.RequestedPages)
				}
			}
		}
	}
}
