package bitmap

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFromWordsCopies is the aliasing regression: FromWords used to share
// the caller's slice, so mutating either side after construction silently
// corrupted the other (until a grow decoupled them). It must copy.
func TestFromWordsCopies(t *testing.T) {
	words := []uint64{0b1011, 1 << 63}
	b := FromWords(words)
	words[0] = 0 // caller keeps writing its slice
	if b.Count() != 4 || !b.Test(0) || !b.Test(1) || !b.Test(3) {
		t.Fatal("FromWords aliased the caller's words: external write leaked in")
	}
	b.Set(5)
	if words[0]&(1<<5) != 0 {
		t.Fatal("FromWords aliased the caller's words: bitmap write leaked out")
	}
}

// TestFromWordsShared pins the explicit opt-in aliasing behaviour.
func TestFromWordsShared(t *testing.T) {
	words := []uint64{0b1}
	b := FromWordsShared(words)
	words[0] |= 0b10
	if !b.Test(1) {
		t.Fatal("FromWordsShared must alias the caller's slice")
	}
}

// naiveRuns is the bit-at-a-time reference the word-level iterator must
// match exactly.
func naiveRuns(test func(int64) bool, lo, hi int64, want bool) []Run {
	if lo < 0 {
		lo = 0
	}
	var runs []Run
	runStart := int64(-1)
	for i := lo; i < hi; i++ {
		if test(i) == want {
			if runStart < 0 {
				runStart = i
			}
		} else if runStart >= 0 {
			runs = append(runs, Run{runStart, i})
			runStart = -1
		}
	}
	if runStart >= 0 {
		runs = append(runs, Run{runStart, hi})
	}
	return runs
}

func equalRuns(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunItersMatchReference drives random bitmaps through both the plain
// Bitmap and Shared run queries and compares against the naive scan,
// including windows beyond the bitmap's length.
func TestRunItersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		b := New(0)
		var s Shared
		for i := 0; i < 20; i++ {
			lo := rng.Int63n(300)
			hi := lo + rng.Int63n(80)
			if rng.Intn(3) == 0 {
				b.ClearRange(lo, hi)
				s.ClearRange(lo, hi)
			} else {
				b.SetRange(lo, hi)
				s.SetRange(lo, hi)
			}
		}
		lo := rng.Int63n(200) - 10
		hi := lo + rng.Int63n(400)
		for _, want := range []bool{false, true} {
			ref := naiveRuns(b.Test, lo, hi, want)
			var got, gotS []Run
			if want {
				got, gotS = b.PresentRuns(lo, hi), s.PresentRuns(lo, hi)
			} else {
				got, gotS = b.MissingRuns(lo, hi), s.MissingRuns(lo, hi)
			}
			if !equalRuns(got, ref) {
				t.Fatalf("Bitmap runs(want=%v, [%d,%d)) = %v, reference %v", want, lo, hi, got, ref)
			}
			if !equalRuns(gotS, ref) {
				t.Fatalf("Shared runs(want=%v, [%d,%d)) = %v, reference %v", want, lo, hi, gotS, ref)
			}
		}
		if b.Count() != s.Count() {
			t.Fatalf("Count diverged: Bitmap %d, Shared %d", b.Count(), s.Count())
		}
		w := rng.Int63n(400)
		if g, want := s.NextClear(w, w+100), b.NextClear(w, w+100); g != want {
			t.Fatalf("NextClear(%d) = %d, Bitmap says %d", w, g, want)
		}
		if g, want := s.CountRange(lo, hi), b.CountRange(lo, hi); g != want {
			t.Fatalf("CountRange = %d, Bitmap says %d", g, want)
		}
	}
}

// TestSharedCopyRangeMatchesBitmap checks the selective export merge
// semantics against the plain implementation.
func TestSharedCopyRangeMatchesBitmap(t *testing.T) {
	b := New(0)
	var s Shared
	b.SetRange(10, 200)
	s.SetRange(10, 200)
	dstB, dstS := New(0), New(0)
	dstB.SetRange(0, 64) // pre-existing dst bits outside the window survive
	dstS.SetRange(0, 64)
	b.CopyRange(dstB, 64, 192)
	s.CopyRange(dstS, 64, 192)
	if dstB.Count() != dstS.Count() {
		t.Fatalf("CopyRange counts diverge: %d vs %d", dstB.Count(), dstS.Count())
	}
	for i := int64(0); i < 256; i++ {
		if dstB.Test(i) != dstS.Test(i) {
			t.Fatalf("CopyRange bit %d diverges", i)
		}
	}
}

// TestSharedShrink mirrors the Bitmap shrink semantics.
func TestSharedShrink(t *testing.T) {
	var s Shared
	s.SetRange(0, 200)
	s.Shrink(100)
	if s.Test(150) || s.Len() > 128 {
		t.Fatalf("Shrink left bits beyond the truncation point (len %d)", s.Len())
	}
	if s.Count() != 100 {
		t.Fatalf("Count after shrink = %d, want 100", s.Count())
	}
}

// TestSharedConcurrentReaders runs lock-free readers against a single
// serialized writer under -race: queries must never tear a word, counts
// must stay within the written envelope, and the final state must be
// exact.
func TestSharedConcurrentReaders(t *testing.T) {
	var s Shared
	const span = 4096
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var torn atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c := s.Count(); c < 0 || c > span {
					torn.Add(1)
				}
				if c := s.CountRange(0, span); c < 0 || c > span {
					torn.Add(1)
				}
				it := s.MissingIter(0, span)
				prev := int64(-1)
				for {
					run, ok := it.Next()
					if !ok {
						break
					}
					if run.Lo >= run.Hi || run.Lo <= prev {
						torn.Add(1)
					}
					prev = run.Hi
				}
				_ = s.Test(seed % span)
				_ = s.NextClear(0, span)
			}
		}(int64(r + 1))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		lo := rng.Int63n(span)
		hi := lo + 1 + rng.Int63n(128)
		if hi > span {
			hi = span
		}
		if i%2 == 0 {
			s.SetRange(lo, hi)
		} else {
			s.ClearRange(lo, hi)
		}
	}
	close(stop)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("readers observed %d inconsistent results", torn.Load())
	}
	var n int64
	for i := int64(0); i < s.Len(); i++ {
		if s.Test(i) {
			n++
		}
	}
	if n != s.Count() {
		t.Fatalf("final Count %d != %d set bits", s.Count(), n)
	}
}

// TestRunIterZeroAlloc pins the allocation-free guarantee of the iterator
// and the Append variants with preallocated capacity.
func TestRunIterZeroAlloc(t *testing.T) {
	var s Shared
	for i := int64(0); i < 4096; i += 3 {
		s.SetRange(i, i+2)
	}
	scratch := make([]Run, 0, 2048)
	if n := testing.AllocsPerRun(100, func() {
		it := s.MissingIter(0, 4096)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		scratch = s.AppendMissingRuns(scratch[:0], 0, 4096)
	}); n != 0 {
		t.Fatalf("Shared run iteration allocates %v per run, want 0", n)
	}
	b := New(4096)
	for i := int64(0); i < 4096; i += 3 {
		b.SetRange(i, i+2)
	}
	if n := testing.AllocsPerRun(100, func() {
		scratch = b.AppendPresentRuns(scratch[:0], 0, 4096)
	}); n != 0 {
		t.Fatalf("Bitmap AppendPresentRuns allocates %v per run, want 0", n)
	}
}

// TestRunIterResumesPastObservedBoundary flips the bit that ended one
// run between two Next calls. The iterator already observed that bit,
// so it must resume past it: the next run may not touch the previous
// one.
func TestRunIterResumesPastObservedBoundary(t *testing.T) {
	for _, present := range []bool{false, true} {
		var s Shared
		s.SetRange(0, 256)
		s.ClearRange(10, 11)
		if !present {
			s.ClearRange(0, 256)
			s.SetRange(10, 11)
		}
		it := s.MissingIter(0, 256)
		if present {
			it = s.PresentIter(0, 256)
		}
		first, ok := it.Next()
		if !ok || first != (Run{0, 10}) {
			t.Fatalf("present=%v: first run %v (ok=%v), want [0,10)", present, first, ok)
		}
		// The boundary bit flips to the iterated value mid-iteration.
		if present {
			s.SetRange(10, 11)
		} else {
			s.ClearRange(10, 11)
		}
		second, ok := it.Next()
		if !ok {
			t.Fatalf("present=%v: no second run", present)
		}
		if second.Lo <= first.Hi {
			t.Fatalf("present=%v: runs %v and %v touch", present, first, second)
		}
	}
}

// bitsFrom sets bit 8k+j of set for every set bit j of data[k].
func bitsFrom(data []byte, set func(int64) bool) {
	for k, by := range data {
		for j := 0; j < 8; j++ {
			if by&(1<<j) != 0 {
				set(int64(k*8 + j))
			}
		}
	}
}

// FuzzSharedCopyRange pins the invariant that makes export snapshots
// reusable: copying [lo, hi) of a Shared bitmap into a dst that already
// holds arbitrary bits yields exactly a fresh dst's bits inside the
// window, leaves every bit outside it untouched, and keeps Count exact.
func FuzzSharedCopyRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, srcBits, priorBits []byte, lo, n uint16) {
		// 4K-bit bitmaps and 8K-bit windows cover every word-edge case
		// while keeping each execution cheap.
		const maxBytes, maxWindow = 512, 8192
		srcBits, priorBits = srcBits[:min(len(srcBits), maxBytes)], priorBits[:min(len(priorBits), maxBytes)]
		lo, n = lo%maxWindow, n%maxWindow
		src := &Shared{}
		bitsFrom(srcBits, src.Set)
		prior, reused := New(0), New(0)
		bitsFrom(priorBits, prior.Set)
		bitsFrom(priorBits, reused.Set)
		fresh := New(0)
		wlo, whi := int64(lo), int64(lo)+int64(n)
		src.CopyRange(reused, wlo, whi)
		src.CopyRange(fresh, wlo, whi)

		end := reused.Len()
		if l := prior.Len(); l > end {
			end = l
		}
		var count int64
		for i := int64(0); i < end; i++ {
			got := reused.Test(i)
			if got {
				count++
			}
			if i >= wlo && i < whi {
				if got != fresh.Test(i) || got != src.Test(i) {
					t.Fatalf("bit %d in window [%d,%d): reused %v, fresh %v, src %v",
						i, wlo, whi, got, fresh.Test(i), src.Test(i))
				}
			} else if got != prior.Test(i) {
				t.Fatalf("bit %d outside window [%d,%d) changed to %v", i, wlo, whi, got)
			}
		}
		if reused.Count() != count {
			t.Fatalf("Count() = %d, %d bits set", reused.Count(), count)
		}
		if want := prior.Count() - prior.CountRange(wlo, whi) + src.CountRange(wlo, whi); count != want {
			t.Fatalf("%d bits set, want prior outside window + src inside = %d", count, want)
		}
	})
}
