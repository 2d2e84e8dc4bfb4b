package fs

import (
	"bytes"
	"math/rand"
	"testing"
)

// fillReference is the original byte-at-a-time definition of the
// deterministic filler pattern. fillSyntheticAt must match it bit for bit
// — synthetic file content is ground truth for the chaos harness and the
// same-seed determinism tests.
func fillReference(dst []byte, phys, off int64) {
	x := uint64(phys)*0x9e3779b97f4a7c15 + 1
	for i := range dst {
		pos := uint64(off) + uint64(i)
		dst[i] = byte((x >> (8 * (pos % 8))) ^ pos)
	}
}

func checkFill(t *testing.T, phys, off int64, size int) {
	t.Helper()
	want := make([]byte, size)
	got := make([]byte, size)
	fillReference(want, phys, off)
	fillSyntheticAt(got, phys, off)
	if !bytes.Equal(got, want) {
		t.Fatalf("fill(phys=%d off=%d size=%d) diverged from reference", phys, off, size)
	}
}

func TestFillSyntheticAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, phys := range []int64{0, 1, 7, 255, 1 << 20, 1<<40 + 12345} {
		for off := int64(0); off < 20; off++ {
			for size := 0; size < 70; size++ {
				checkFill(t, phys, off, size)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		checkFill(t, rng.Int63(), rng.Int63n(1<<30), rng.Intn(9000))
	}
}

// TestFillSyntheticAtPeriodEdges covers the 256-byte template's edges:
// every start phase, lengths that end just before, at and just after the
// first period boundary, and multi-period fills that end mid-period.
func TestFillSyntheticAtPeriodEdges(t *testing.T) {
	for _, phys := range []int64{0, 3, 1<<33 + 5} {
		for _, base := range []int64{0, 1 << 31} {
			for phase := int64(0); phase < 256; phase++ {
				off := base + phase
				toEdge := int(256 - phase)
				for _, size := range []int{0, 1, toEdge - 1, toEdge, toEdge + 1, 256, 257, 4096, 3*4096 + 17} {
					checkFill(t, phys, off, size)
				}
			}
		}
	}
}

// FuzzFillSyntheticAt checks fillSyntheticAt against the byte-at-a-time
// reference for any block, offset and length up to 16KB.
func FuzzFillSyntheticAt(f *testing.F) {
	f.Fuzz(func(t *testing.T, phys, off int64, size uint16) {
		checkFill(t, phys, off, int(size)%(16<<10+1))
	})
}

func BenchmarkFillSyntheticAt(b *testing.B) {
	cases := []struct {
		name string
		off  int64
		size int
	}{
		{"size=256", 0, 256},
		{"size=4K", 0, 4 << 10},
		{"size=128K", 0, 128 << 10},
		{"size=4K/off=1000", 1000, 4 << 10},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]byte, c.size)
			b.SetBytes(int64(c.size))
			for i := 0; i < b.N; i++ {
				fillSyntheticAt(dst, int64(i), c.off)
			}
		})
	}
}
