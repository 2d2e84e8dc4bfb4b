package bitmap

import (
	"math/bits"
	"sync/atomic"
)

// wordsView abstracts a []uint64 bit store whose words may require atomic
// loads (Shared's published slice, read concurrently with a writer) or
// plain loads (an unshared Bitmap). Indices beyond the slice read as zero.
type wordsView struct {
	words  []uint64
	shared bool
}

func (v wordsView) load(w int) uint64 {
	if w < 0 || w >= len(v.words) {
		return 0
	}
	if v.shared {
		return atomic.LoadUint64(&v.words[w])
	}
	return v.words[w]
}

// RunIter yields the maximal runs of equal-valued bits in a window one at
// a time, scanning whole words with bits.TrailingZeros64 and allocating
// nothing. The zero value is an exhausted iterator.
type RunIter struct {
	v    wordsView
	pos  int64
	hi   int64
	want bool // true: runs of set bits, false: runs of clear bits
}

func newRunIter(v wordsView, lo, hi int64, want bool) RunIter {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return RunIter{v: v, pos: lo, hi: hi, want: want}
}

// Next returns the next run, or ok=false when the window is exhausted.
func (it *RunIter) Next() (r Run, ok bool) {
	start := it.seek(it.pos, it.want)
	if start >= it.hi {
		it.pos = it.hi
		return Run{}, false
	}
	end := it.seek(start+1, !it.want)
	if end >= it.hi {
		end = it.hi
		it.pos = it.hi
	} else {
		// The bit at end was already observed as !want: resume past it.
		// Reloading it would let a concurrent writer flip it and split
		// one maximal run into two touching runs.
		it.pos = end + 1
	}
	return Run{start, end}, true
}

// seek returns the first index in [i, hi) whose bit equals set, or hi.
func (it *RunIter) seek(i int64, set bool) int64 {
	for i < it.hi {
		w := int(i / wordBits)
		x := it.v.load(w)
		if !set {
			x = ^x
		}
		x &= ^uint64(0) << (uint(i) % wordBits)
		if x != 0 {
			return int64(w)*wordBits + int64(bits.TrailingZeros64(x))
		}
		i = int64(w+1) * wordBits
	}
	return it.hi
}

// appendRuns drains it into dst.
func appendRuns(dst []Run, it RunIter) []Run {
	for {
		r, ok := it.Next()
		if !ok {
			return dst
		}
		dst = append(dst, r)
	}
}
