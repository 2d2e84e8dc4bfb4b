package vfs

// The I/O body every frontend shares. The sync read path (passthrough or
// plugged), readahead(2), readahead_info, mmap faults and ring servicing
// differ only in how they submit device work and when they wait; each
// step below is written once:
//
//   - walk: logical runs → MapRange → maxVFSRequest-sized device chunks,
//     holes reported in place (chunk.hole);
//   - landDemand / landPrefetch / landHole: the accounting and page
//     insertion after a device read succeeded (never before: the
//     poisoning guard), or of a hole's zero-fill;
//   - segGroup: one merged plug command's logically contiguous extent;
//   - retrying: the bounded transient-fault retry of blocking requests;
//   - copyOut: the user-space copy charge;
//   - writeBuffered: the buffered pwrite body;
//   - clampWindow: the prefetch window limit (§4.7).

import (
	"repro/internal/bitmap"
	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// chunk is one step of an extentWalk: logical blocks [lo, lo+blocks),
// backed by device bytes [off, off+bytes) — or, when bytes is 0, a hole
// (unmapped blocks: zero-fill, no device I/O).
type chunk struct {
	lo, blocks int64
	off, bytes int64
}

func (c chunk) hole() bool { return c.bytes == 0 }

// extentWalk iterates the device chunks behind a list of logical-block
// runs: each run is resolved with MapRange when the walk reaches it, and
// each physical extent is cut into requests of at most maxVFSRequest
// bytes (the paper: "the VFS layer limits an I/O request to a maximum of
// 2MB"). Holes come back in logical order between the extents, so demand
// paths zero-fill them in place and prefetch and write paths skip them.
// A value type driven by next, so the walk allocates nothing beyond
// MapRange's extent list.
type extentWalk struct {
	ino  *fs.Inode
	bs   int64
	runs []bitmap.Run // runs not yet started

	ext    []fs.PhysRun // extents of the current run not yet started
	hi     int64        // end of the current run
	cursor int64        // next logical block of the current run not yet yielded

	lo, off, left int64 // rest of the current extent
}

// walk starts an extentWalk over runs.
func (f *File) walk(runs []bitmap.Run) extentWalk {
	return extentWalk{ino: f.ino, bs: f.v.BlockSize(), runs: runs}
}

// next returns the walk's next chunk; ok is false once every run is done.
func (w *extentWalk) next() (c chunk, ok bool) {
	for {
		if w.left > 0 {
			n := w.left
			if n > maxVFSRequest {
				n = maxVFSRequest
			}
			c = chunk{lo: w.lo, blocks: (n + w.bs - 1) / w.bs, off: w.off, bytes: n}
			w.lo += c.blocks
			w.off += n
			w.left -= n
			return c, true
		}
		if len(w.ext) > 0 {
			pr := w.ext[0]
			w.ext = w.ext[1:]
			c = chunk{lo: w.cursor, blocks: pr.Logical - w.cursor}
			w.cursor = pr.Logical + pr.Count
			w.lo, w.off, w.left = pr.Logical, pr.Phys*w.bs, pr.Count*w.bs
			if c.blocks > 0 {
				return c, true
			}
			continue
		}
		if w.cursor < w.hi {
			c = chunk{lo: w.cursor, blocks: w.hi - w.cursor}
			w.cursor = w.hi
			return c, true
		}
		if len(w.runs) == 0 {
			return chunk{}, false
		}
		r := w.runs[0]
		w.runs = w.runs[1:]
		w.ext = w.ino.MapRange(r.Lo, r.Hi)
		w.cursor, w.hi = r.Lo, r.Hi
	}
}

// landDemand accounts and inserts demand-fetched pages [lo, lo+blocks)
// after their device read succeeded; readyAt is the read's completion
// (0 when the caller already waited for it).
func (f *File) landDemand(tl *simtime.Timeline, lo, blocks int64, readyAt simtime.Time, tenant int) {
	f.v.rec.Add(telemetry.CtrVFSDemandFetchPages, blocks)
	telemetry.CountPages(tl, telemetry.PageDemand, blocks)
	f.fc.InsertRange(tl, lo, lo+blocks, pagecache.InsertOptions{ReadyAt: readyAt, MarkerAt: -1, Tenant: tenant})
}

// landHole inserts the unmapped blocks [lo, lo+blocks) a demand read
// covers: zero-fill, no device I/O.
func (f *File) landHole(tl *simtime.Timeline, lo, blocks int64, tenant int) {
	f.v.rec.Add(telemetry.CtrVFSZeroFillPages, blocks)
	f.fc.InsertRange(tl, lo, lo+blocks, pagecache.InsertOptions{MarkerAt: -1, Tenant: tenant})
}

// landPrefetch accounts and inserts prefetched pages [lo, lo+blocks)
// whose asynchronous read was submitted at `at` and completes at done
// (their ready time); opts carries the marker and provenance. It returns
// the pages newly inserted.
func (f *File) landPrefetch(tl *simtime.Timeline, lo, blocks int64, at, done simtime.Time, opts pagecache.InsertOptions) int64 {
	f.v.rec.Add(telemetry.CtrVFSPrefetchDevicePages, blocks)
	telemetry.CountPages(tl, telemetry.PagePrefetch, blocks)
	f.v.rec.Observe(telemetry.HistPrefetchLat, int64(done.Sub(at)))
	opts.ReadyAt = done
	n := f.fc.InsertRange(tl, lo, lo+blocks, opts)
	f.v.rec.Add(telemetry.CtrVFSPrefetchInsertedPages, n)
	return n
}

// segBlocks converts a plug segment's byte length to pages.
func segBlocks(s blockdev.Segment, bs int64) int64 { return (s.Bytes + bs - 1) / bs }

// segGroup returns the logically contiguous extent that starts at
// segs[i] and rode one merged command: its first block, its pages, and
// the index of the next group. A command succeeds or fails as a whole,
// so a group lands (or not) as one insertion.
func segGroup(segs []blockdev.Segment, i int, bs int64) (lo, blocks int64, next int) {
	lo, blocks = segs[i].UserLo, segBlocks(segs[i], bs)
	for next = i + 1; next < len(segs) && segs[next].Cmd == segs[i].Cmd && segs[next].UserLo == lo+blocks; next++ {
		blocks += segBlocks(segs[next], bs)
	}
	return lo, blocks, next
}

// retrying runs one blocking device request (a passthrough demand-read
// chunk or an fsync write chunk) with bounded transient-fault retry and
// clamped exponential virtual-time backoff: transient device glitches
// are absorbed here (charged as wait time), while persistent faults and
// exhausted budgets surface to the caller.
func (v *VFS) retrying(tl *simtime.Timeline, submit func() error) error {
	rp := v.retryPolicy()
	err := submit()
	for attempt := 1; err != nil && blockdev.IsTransient(err) && attempt <= rp.Max; attempt++ {
		start := tl.Now()
		tl.WaitUntil(start.Add(rp.Backoff(attempt)), simtime.WaitIO)
		telemetry.Current(tl).Child("vfs.retry_backoff", telemetry.CatRetry, start, tl.Now()).
			Annotate("attempt", int64(attempt))
		v.rec.Add(telemetry.CtrVFSDemandRetries, 1)
		err = submit()
	}
	return err
}

// copyOut charges the user-space copy of pages pages.
func (v *VFS) copyOut(tl *simtime.Timeline, pages int64) {
	start := tl.Now()
	tl.Advance(simtime.Duration(pages) * v.cfg.Costs.PageCopy)
	telemetry.Current(tl).Child("vfs.copy_out", telemetry.CatCopy, start, tl.Now()).
		Annotate("pages", pages)
}

// writeBuffered is the buffered (write-back) pwrite body of WriteAt and
// ring write SQEs: data lands in the backing store and, dirty, in the
// page cache (owned by tenant); device writes happen on eviction or
// fsync. A partial first or last block that exists on disk and is not
// cached is fetched first (read-modify-write); a failed edge fetch fails
// the write, because merging into a block we could not read would
// corrupt its other bytes. balanceDirty then throttles the writer.
func (f *File) writeBuffered(tl *simtime.Timeline, data []byte, off int64, tenant int) error {
	bs := f.v.BlockSize()
	n := int64(len(data))
	lo, hi := f.v.blockRange(off, n)
	oldSize := f.ino.Size()

	var edges [2]bitmap.Run
	rmw := edges[:0]
	if off%bs != 0 && off < oldSize {
		if res := f.fc.LookupRange(tl, lo, lo+1); res.PresentCount == 0 {
			rmw = append(rmw, bitmap.Run{Lo: lo, Hi: lo + 1})
		}
	}
	if (off+n)%bs != 0 && off+n < oldSize && hi-1 != lo {
		if res := f.fc.LookupRange(tl, hi-1, hi); res.PresentCount == 0 {
			rmw = append(rmw, bitmap.Run{Lo: hi - 1, Hi: hi})
		}
	}
	if len(rmw) > 0 {
		if err := f.fetchRuns(tl, rmw); err != nil {
			return err
		}
	}

	f.ino.WriteAt(data, off)
	tl.Advance(simtime.Duration(hi-lo) * f.v.cfg.Costs.PageCopy)
	f.fc.InsertRange(tl, lo, hi, pagecache.InsertOptions{Dirty: true, MarkerAt: -1, Tenant: tenant})
	f.fc.SetDirtyRange(tl, lo, hi)
	f.v.balanceDirty(tl)
	return nil
}

// clampWindow clamps the prefetch window [lo, hi) to what the kernel
// admits in one request, books the requested/admitted/rejected split,
// and returns the clamped hi. The limit is the static window cap
// RA.MaxPages, raised to override when the kernel allows limit
// relaxation (§4.7), then deepened by the cross-tier boost for a
// remote-resident range; both raises stay within MaxPrefetchBytes. Under
// the level-2 brownout clamp (clamped) the limit is at most
// brownoutClampPages and the boost is off: remote residency must not
// amplify I/O while reclaim is drowning.
//
// readahead_info and ring prefetch SQEs share it. A ring SQE asks for
// its whole range (override = hi-lo) and is never clamped: the ring
// sheds prefetch at brownout level >= 1 before it gets here.
//
// Precondition: RA.MaxPages <= MaxPrefetchBytes/bs. The static cap is
// not cut to the byte budget, so only then is every grant within
// MaxPrefetchBytes. Every configuration this repository builds meets it
// (a static cap of at most a few MB against a 64MB budget).
func (f *File) clampWindow(lo, hi, override int64, clamped bool) int64 {
	v := f.v
	maxPages := v.cfg.MaxPrefetchBytes / v.BlockSize()
	limit := v.cfg.RA.MaxPages
	if v.cfg.AllowLimitOverride && override > limit {
		limit = min(override, maxPages)
	}
	// rangeBoost runs even when clamped: its lookup is what first
	// places a tiered stack's extents.
	boost := f.rangeBoost(lo, hi)
	switch {
	case clamped:
		limit = min(limit, brownoutClampPages)
	case boost > 1:
		limit = min(limit*boost, maxPages)
	}
	granted := min(hi-lo, limit)
	v.rec.Add(telemetry.CtrKernelRequestedPages, hi-lo)
	v.rec.Add(telemetry.CtrKernelAdmittedPages, granted)
	v.rec.Add(telemetry.CtrKernelRejectedPages, hi-lo-granted)
	return lo + granted
}
