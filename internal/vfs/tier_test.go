package vfs

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// newTieredKernel builds a kernel over a width-1 local device tiered
// over a half-remote NVMe-oF device.
func newTieredKernel(t *testing.T, capacity int64, brownout bool) (*VFS, *blockdev.Stack) {
	t.Helper()
	costs := simtime.DefaultCosts()
	st := blockdev.NewStack(blockdev.StackConfig{
		Local: blockdev.NVMeConfig(),
		Width: 1,
		Tier: blockdev.TierConfig{
			Enabled:    true,
			Remote:     blockdev.RemoteNVMeConfig(),
			RemoteFrac: 0.5,
		},
	})
	cfg := DefaultConfig()
	cfg.Brownout = brownout
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: capacity, Costs: costs}, nil)
	return NewStack(cfg, fsys, st, cache), st
}

// saturateRemote books at least bytes of reads on a tiered stack's remote
// member, at `at`, through one stack-addressed plug flush over
// remote-resident extents; the local members stay idle.
func saturateRemote(t *testing.T, st *blockdev.Stack, at simtime.Time, bytes int64) {
	t.Helper()
	extB := st.Config().Tier.ExtentBytes
	// First touch fixes each extent's residency; scan enough extents for
	// the remote share to cover bytes.
	st.BacklogFor(at, 0, 4*bytes)
	p := st.NewPlug(blockdev.PlugConfig{Plugged: true})
	var booked int64
	for _, h := range st.TierStats(0).Heat {
		if !h.Local && booked < bytes {
			p.Add(blockdev.OpRead, h.Extent*extB, extB, h.Extent)
			booked += extB
		}
	}
	p.FlushAsync(at, 0)
	for _, rq := range p.Requests() {
		if !rq.Issued {
			t.Fatalf("saturating read at %d not issued: %+v", rq.Off, rq)
		}
	}
	if booked < bytes {
		t.Fatalf("found %d remote bytes, want %d", booked, bytes)
	}
}

// Regression test for the single-device congestion accounting bug:
// prefetch congestion and brownout shed decisions must read the backlog
// of only the backends a range actually targets. Before the fix they
// read the stack-wide worst backlog, so a saturated remote tier
// throttled (and brownout-shed) prefetch bound for idle local devices.
func TestSaturatedRemoteDoesNotThrottleLocalPrefetch(t *testing.T) {
	v, st := newTieredKernel(t, 1_000_000, true)
	tl := simtime.NewTimeline(0)
	if _, err := v.FS().CreateSynthetic(tl, "big", 16<<20); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}

	// Saturate the remote member far past the clamp threshold; the local
	// member stays idle.
	saturateRemote(t, st, tl.Now(), 1<<30)
	if st.Backlog(tl.Now()) <= 4*v.cfg.CongestionLimit {
		t.Fatal("remote member not saturated enough to exercise the clamp")
	}
	// The global brownout state machine still sees the stack-wide worst
	// backlog (that is its job)...
	if lv := v.pressureCheck(tl); lv != BrownoutClamped {
		t.Fatalf("global pressure = %d, want BrownoutClamped", lv)
	}

	// ...but per-range decisions split by target backend. Scan
	// extent-sized logical windows and pick one fully local (zero
	// backlog) and one touching the saturated remote tier.
	extBlocks := st.Config().Tier.ExtentBytes / v.BlockSize()
	var localLo, remoteLo int64 = -1, -1
	for lo := int64(0); lo+extBlocks <= f.ino.Blocks(); lo += extBlocks {
		switch b := f.rangeBacklog(tl.Now(), lo, lo+extBlocks); {
		case b == 0:
			if localLo < 0 {
				localLo = lo
			}
		case b > 4*v.cfg.CongestionLimit:
			if remoteLo < 0 {
				remoteLo = lo
			}
		}
	}
	if localLo < 0 || remoteLo < 0 {
		t.Fatalf("half-remote dataset should yield both window kinds (local=%d remote=%d)",
			localLo, remoteLo)
	}
	if lv := v.targetPressure(tl, f, localLo, localLo+extBlocks); lv != BrownoutNormal {
		t.Fatalf("local-targeted pressure = %d, want BrownoutNormal "+
			"(pre-fix: stack-wide backlog shed prefetch bound for the idle local device)", lv)
	}
	if lv := v.targetPressure(tl, f, remoteLo, remoteLo+extBlocks); lv != BrownoutClamped {
		t.Fatalf("remote-targeted pressure = %d, want BrownoutClamped", lv)
	}

	// End to end through the prefetch admission: a run over the local
	// extent issues, a run over the saturated remote extent is postponed
	// as congested.
	issued, err := f.prefetchRuns(tl, tl.Now(),
		[]bitmap.Run{{Lo: localLo, Hi: localLo + extBlocks}},
		-1, telemetry.OriginReadahead, telemetry.ArmNone)
	if err != nil {
		t.Fatal(err)
	}
	if issued == 0 {
		t.Fatal("local-targeted prefetch was shed by remote congestion")
	}
	issued, err = f.prefetchRuns(tl, tl.Now(),
		[]bitmap.Run{{Lo: remoteLo, Hi: remoteLo + extBlocks}},
		-1, telemetry.OriginReadahead, telemetry.ArmNone)
	if err != nil {
		t.Fatal(err)
	}
	if issued != 0 {
		t.Fatal("remote-targeted prefetch should postpone against its backend backlog")
	}
}

// Cross-tier prefetch must deepen readahead over remote-resident
// extents (the RTT-scaled boost) and leave all-local ranges alone.
func TestRangeBoostDeepensRemoteReadahead(t *testing.T) {
	costs := simtime.DefaultCosts()
	st := blockdev.NewStack(blockdev.StackConfig{
		Local: blockdev.NVMeConfig(),
		Width: 1,
		Tier: blockdev.TierConfig{
			Enabled:           true,
			Remote:            blockdev.RemoteNVMeConfigRTT(200 * simtime.Microsecond),
			RemoteFrac:        0.5,
			CrossTierPrefetch: true,
		},
	})
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: 1 << 20, Costs: costs}, nil)
	v := NewStack(DefaultConfig(), fsys, st, cache)
	tl := simtime.NewTimeline(0)
	if _, err := v.FS().CreateSynthetic(tl, "big", 16<<20); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}
	extBlocks := st.Config().Tier.ExtentBytes / v.BlockSize()
	var sawBoost, sawFlat bool
	for lo := int64(0); lo+extBlocks <= f.ino.Blocks(); lo += extBlocks {
		switch b := f.rangeBoost(lo, lo+extBlocks); {
		case b > 1:
			sawBoost = true
		case b == 1:
			sawFlat = true
		default:
			t.Fatalf("boost %d < 1", b)
		}
	}
	if !sawBoost || !sawFlat {
		t.Fatalf("want both boosted (remote) and flat (local) windows: boost=%v flat=%v",
			sawBoost, sawFlat)
	}
}
