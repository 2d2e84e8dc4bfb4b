package crosslib

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/faultinject"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// prefetchWindow is the block count of one test crossing.
const prefetchWindow = 32

// newCrossingRuntime is the full system minus prediction, so opening a
// file issues no optimistic prefetch: every window the tests cross
// starts uncached.
func newCrossingRuntime(capacity int64) (*vfs.VFS, *Runtime) {
	v := newKernel(capacity)
	opt := CrossPredictOpt.Options()
	opt.Predict = false
	return v, New(v, opt)
}

// openSynthetic creates and opens a synthetic file of the given size.
func openSynthetic(t testing.TB, v *vfs.VFS, rt *Runtime, tl *simtime.Timeline, name string, size int64) *File {
	t.Helper()
	if _, err := v.FS().CreateSynthetic(tl, name, size); err != nil {
		t.Fatal(err)
	}
	f, err := rt.Open(tl, name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// openPrefetchFile returns a descriptor on a fresh synthetic file of the
// given size.
func openPrefetchFile(t testing.TB, capacity, size int64) (*File, *simtime.Timeline) {
	v, rt := newCrossingRuntime(capacity)
	tl := simtime.NewTimeline(0)
	return openSynthetic(t, v, rt, tl, "big", size), tl
}

// bytesPerCrossing reports the mean heap bytes one readahead_info
// prefetch of a fresh window allocates, starting at block base.
func bytesPerCrossing(t *testing.T, base int64) float64 {
	f, tl := openPrefetchFile(t, 1<<16, (base+64*prefetchWindow)*4096)
	cross := func(i int64) {
		lo := base + i*prefetchWindow
		if !f.issuePrefetch(tl, f.kf, f.sf, lo, lo+prefetchWindow, false, telemetry.ArmNone) {
			t.Fatalf("prefetch at block %d failed", lo)
		}
	}
	// Warm up at the far end: the kernel's bitmap and any reused
	// snapshot grow once to cover every measured window.
	const n = 48
	cross(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < n; i++ {
		cross(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestPrefetchSnapshotAllocIndependentOfOffset: a readahead_info crossing
// deep in a large file allocates no more than one near block 0. A
// per-crossing snapshot sized from block 0 to the window's end costs
// 32KB at block 1<<18.
func TestPrefetchSnapshotAllocIndependentOfOffset(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	shallow := bytesPerCrossing(t, 0)
	deep := bytesPerCrossing(t, 1<<18)
	t.Logf("bytes per crossing: block 0 %.0f, block 1<<18 %.0f", shallow, deep)
	if deep > shallow+4096 {
		t.Fatalf("crossing at block 1<<18 allocates %.0fB, at block 0 %.0fB: the snapshot grows with the file offset", deep, shallow)
	}
}

// blockState is the range tree's belief about one block.
type blockState struct{ cached, requested bool }

func treeState(f *File, lo, hi int64) []blockState {
	out := make([]blockState, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rlo, rhi := f.sf.tree.UnrequestedSpan(i, i+1)
		out = append(out, blockState{
			cached:    f.sf.tree.CachedCount(nil, i, i+1) == 1,
			requested: rlo == rhi,
		})
	}
	return out
}

// TestReusedSnapshotMatchesFresh: a crossing whose snapshot was just used
// for a fully cached window leaves the range tree exactly as a fresh
// snapshot would, even though its own overlapping window stays
// uncached (its prefetch fails on the device).
func TestReusedSnapshotMatchesFresh(t *testing.T) {
	run := func(fresh bool) ([]blockState, simtime.Time) {
		v, rt := newCrossingRuntime(1 << 16)
		tl := simtime.NewTimeline(0)
		a := openSynthetic(t, v, rt, tl, "a", 256*4096)
		b := openSynthetic(t, v, rt, tl, "b", 256*4096)
		// Cache a's window, then cross it again fully cached: the
		// snapshot comes back with every bit of [0, 64) set.
		for range 2 {
			a.issuePrefetch(tl, a.kf, a.sf, 0, 64, false, telemetry.ArmNone)
		}
		if got := a.sf.tree.CachedCount(nil, 0, 64); got != 64 {
			t.Fatalf("first window: %d/64 blocks cached", got)
		}
		v.Stack().SetFaultInjector(faultinject.New(faultinject.Plan{
			Seed:   7,
			Ranges: []faultinject.RangeFault{{Lo: 0, Hi: 1 << 40, Class: faultinject.Persistent, Reads: true}},
		}))
		if fresh {
			rt.snapshots = sync.Pool{}
		}
		if b.issuePrefetch(tl, b.kf, b.sf, 32, 96, false, telemetry.ArmNone) {
			t.Fatal("prefetch on a failing device reported success")
		}
		for snap := rt.snapshots.Get(); snap != nil; snap = rt.snapshots.Get() {
			if n := snap.(*bitmap.Bitmap).Count(); n != 0 {
				t.Fatalf("pooled snapshot holds %d set bits", n)
			}
		}
		return treeState(b, 0, 128), tl.Now()
	}
	want, wantNow := run(true)
	got, gotNow := run(false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block %d: reused snapshot gives %+v, fresh gives %+v", i, got[i], want[i])
		}
	}
	if gotNow != wantNow {
		t.Fatalf("virtual time %v with a reused snapshot, %v with a fresh one", gotNow, wantNow)
	}
	for i, s := range want[32:96] {
		if s.cached || s.requested {
			t.Fatalf("block %d: %+v after a failed prefetch, want neither cached nor requested", 32+i, s)
		}
	}
}

func BenchmarkIssuePrefetchDeep(b *testing.B) {
	for _, base := range []int64{0, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("block=%d", base), func(b *testing.B) {
			f, tl := openPrefetchFile(b, 1<<16, (base+1<<12)*4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cycle through a 4096-block span: the first lap
				// prefetches, later laps cross fully cached windows.
				lo := base + int64(i%(4096/prefetchWindow))*prefetchWindow
				f.issuePrefetch(tl, f.kf, f.sf, lo, lo+prefetchWindow, false, telemetry.ArmNone)
			}
		})
	}
}
