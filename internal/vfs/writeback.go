package vfs

// The write-side device submission paths: reads can only reach the
// device through a StackPlug, while writes — fsync's blocking lane
// (Fsync, io.go) and the cache's background writeback (flushRun, here) —
// submit against the stack directly with Stack.Write and
// Stack.WriteAsync (Linux likewise plugs the read/readahead submission
// paths; writeback batches through its own work lists).

import (
	"repro/internal/blockdev"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// flushRun is the page cache's dirty writeback hook: async device writes
// for the physical segments backing logical blocks [lo, hi) of inoID,
// with bounded virtual-time retry of transient faults. On error the
// cache re-inserts the run's pages dirty (see pagecache.FlushFn).
func (v *VFS) flushRun(at simtime.Time, inoID, lo, hi int64) (simtime.Time, error) {
	bs := v.BlockSize()
	rp := v.retryPolicy()
	last := at
	write := func(devOff, bytes int64) error {
		submit := at
		for attempt := 0; ; attempt++ {
			done, err := v.dev.WriteAsync(submit, devOff, bytes)
			if err == nil {
				if done > last {
					last = done
				}
				return nil
			}
			if !blockdev.IsTransient(err) || attempt >= rp.Max {
				return err
			}
			v.rec.Add(telemetry.CtrVFSWritebackRetries, 1)
			submit = done.Add(rp.Backoff(attempt + 1))
		}
	}
	ino := v.fsys.InodeByID(inoID)
	if ino == nil {
		// Deleted file: write addressed by logical position (the data is
		// going away anyway; this keeps the device time honest).
		if err := write(lo*bs, (hi-lo)*bs); err != nil {
			return last, err
		}
		return last, nil
	}
	for _, pr := range ino.MapRange(lo, hi) {
		if err := write(pr.Phys*bs, pr.Count*bs); err != nil {
			return last, err
		}
	}
	return last, nil
}
