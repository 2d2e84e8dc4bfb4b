// Acceptance tests for the block-layer submission scheduler: on a
// sequential multi-stream workload, plugging must cut device commands by
// a large constant factor at identical byte totals, finish the prefetch
// work earlier in virtual time, and keep every cross-layer telemetry
// invariant intact in both modes.
package crossprefetch_test

import (
	"fmt"
	"testing"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/simtime"
)

// runPlugStreams runs 4 sequential streams over private 8MB files with
// the paper's idealistic FetchAll policy (whole-file prefetch on first
// read) and returns the device stats plus the virtual time at which the
// last prefetched page became resident.
func runPlugStreams(t *testing.T, plugged bool) (blockdev.Stats, simtime.Time) {
	t.Helper()
	const (
		streams   = 4
		fileBytes = int64(8 << 20)
	)
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: 256 << 20,
		Approach:    crossprefetch.CrossFetchAllOpt,
		Telemetry:   true,
		Plug:        plugged,
		// Raise the congestion cutoff so both modes issue the full
		// prefetch volume and the comparison is byte-for-byte.
		CongestionLimit: simtime.Second,
	})
	tl0 := sys.Timeline()
	for i := 0; i < streams; i++ {
		if err := sys.CreateSynthetic(tl0, fmt.Sprintf("s%d", i), fileBytes); err != nil {
			t.Fatal(err)
		}
	}
	g := sys.Group()
	for i := 0; i < streams; i++ {
		g.Go(func(id int, tl *simtime.Timeline) {
			f, err := sys.Open(tl, fmt.Sprintf("s%d", id))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close(tl)
			buf := make([]byte, 64<<10)
			for off := int64(0); off < fileBytes; off += int64(len(buf)) {
				if _, err := f.ReadAt(tl, buf, off); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	g.Wait()

	if err := sys.AuditTelemetry(); err != nil {
		t.Fatalf("plugged=%v: telemetry audit: %v", plugged, err)
	}
	var ready simtime.Time
	for i := 0; i < streams; i++ {
		ino, err := sys.FS().Open(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if r := sys.Cache().File(ino.ID()).ResidentReadyAt(0, fileBytes/4096); r > ready {
			ready = r
		}
	}
	return sys.Stack().Stats(), ready
}

func TestPlugCutsDeviceCommandsAtEqualBytes(t *testing.T) {
	off, offReady := runPlugStreams(t, false)
	on, onReady := runPlugStreams(t, true)

	if on.ReadBytes != off.ReadBytes {
		t.Fatalf("byte totals diverge: plugged %d, unplugged %d — merging must be byte-preserving",
			on.ReadBytes, off.ReadBytes)
	}
	if on.ReadOps > off.ReadOps*7/10 {
		t.Fatalf("plugged issued %d read commands vs %d unplugged: want ≥30%% reduction",
			on.ReadOps, off.ReadOps)
	}
	if on.MergedSegments == 0 {
		t.Fatal("plugged run reports no merged segments")
	}
	if onReady >= offReady {
		t.Fatalf("prefetch completion did not improve: plugged ready at %v, unplugged %v "+
			"(fewer per-command overheads must finish the same bytes earlier)",
			onReady, offReady)
	}
	t.Logf("read commands %d -> %d (%.0f%% fewer), merged segments %d, "+
		"prefetch complete %v -> %v",
		off.ReadOps, on.ReadOps, 100*(1-float64(on.ReadOps)/float64(off.ReadOps)),
		on.MergedSegments, offReady, onReady)
}
