package blockdev

import (
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Default plug scheduler parameters: a typical NVMe submission-queue
// depth, and a merge window matching large-enough commands that further
// merging stops paying (CmdOverhead amortized below noise).
const (
	DefaultQueueDepth       = 32
	DefaultMergeWindowBytes = 8 << 20
)

// PlugConfig configures the block-layer submission scheduler.
//
// With Plugged false (the default) the plug is a passthrough: every
// request dispatches immediately with exactly the Device.Access /
// Device.AccessAsync semantics (see StackPlug.SyncRead and
// StackPlug.AsyncPrefetchChunk). With Plugged true, requests accumulate in
// the plug (mirroring Linux block plugging), adjacent same-op requests
// merge front/back into single commands bounded by MergeWindowBytes, and
// dispatch on unplug models QueueDepth in-flight commands: command i may
// not be submitted before command i-QueueDepth completed.
type PlugConfig struct {
	Plugged          bool
	QueueDepth       int   // 0 selects DefaultQueueDepth
	MergeWindowBytes int64 // 0 selects DefaultMergeWindowBytes
}

// WithDefaults fills zero fields with the default scheduler parameters.
func (c PlugConfig) WithDefaults() PlugConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MergeWindowBytes <= 0 {
		c.MergeWindowBytes = DefaultMergeWindowBytes
	}
	return c
}

// RetryPolicy bounds transient-fault retry during dispatch: up to Max
// retries, backing off Base << (attempt-1) clamped to Cap. The clamp is
// what keeps a large configured retry budget from shifting the backoff
// into overflow (Base << 63 is negative) or into absurd virtual waits.
type RetryPolicy struct {
	Max  int
	Base simtime.Duration
	Cap  simtime.Duration
}

// Backoff returns the clamped wait before retry number attempt (1-based).
func (rp RetryPolicy) Backoff(attempt int) simtime.Duration {
	d := rp.Base
	for i := 1; i < attempt; i++ {
		d <<= 1
		if rp.Cap > 0 && (d >= rp.Cap || d <= 0) {
			return rp.Cap
		}
	}
	if rp.Cap > 0 && d > rp.Cap {
		return rp.Cap
	}
	return d
}

// Segment is one request submitted through a plug — the unit the caller
// thinks in (a VFS chunk). UserLo is an opaque caller cookie (the VFS
// stores the chunk's first logical block) carried through merging so
// results can be mapped back without extra bookkeeping.
type Segment struct {
	Op     Op
	Off    int64
	Bytes  int64
	UserLo int64
	// Cmd indexes the merged command this segment became part of.
	Cmd int

	// Dispatch results.
	//
	// Issued: the segment's command was dispatched and succeeded; Done is
	// its completion time. Err: the command failed (after any injected
	// stall, at Done). Congested: the command was postponed by congestion
	// control and never dispatched. A segment with none of the three set
	// was skipped because an earlier command failed.
	Issued    bool
	Congested bool
	Err       error
	Done      simtime.Time
}

// command is one merged device command: one CmdOverhead, one transfer
// reservation, nsegs source segments.
type command struct {
	op    Op
	off   int64
	bytes int64
	nsegs int

	issued    bool
	congested bool
	err       error
	done      simtime.Time
}

// Plug is one member device's submission queue inside a StackPlug. It is
// not safe for concurrent use; each simulated thread plugs, submits, and
// unplugs on its own timeline (as in Linux, where the plug lives on the
// task struct).
type Plug struct {
	dev *Device
	cfg PlugConfig

	segs []Segment
	cmds []command

	retries int
}

// newPlug returns a plug over the device with cfg's scheduling policy.
func (d *Device) newPlug(cfg PlugConfig) *Plug {
	return &Plug{dev: d, cfg: cfg.WithDefaults()}
}

// Plugged reports whether this plug accumulates (true) or passes through.
func (p *Plug) Plugged() bool { return p.cfg.Plugged }

// Reset clears accumulated state, keeping capacity (plugs are pooled).
func (p *Plug) Reset() {
	p.segs = p.segs[:0]
	p.cmds = p.cmds[:0]
	p.retries = 0
}

// Segments exposes the submitted segments with their dispatch results.
func (p *Plug) Segments() []Segment { return p.segs }

// DispatchedCommands reports how many accumulated commands the last flush
// issued to the device (0 before any flush).
func (p *Plug) DispatchedCommands() int {
	n := 0
	for i := range p.cmds {
		if p.cmds[i].issued {
			n++
		}
	}
	return n
}

// Retries reports transient-fault retries performed during FlushSync.
func (p *Plug) Retries() int { return p.retries }

// Add queues one segment in the plug, merging it into an existing
// accumulated command when it is device-adjacent (front or back), same
// op, and the merged command stays within the merge window. A segment
// that bridges two commands triggers a second-level merge: the pair it
// made adjacent coalesces into one command (still window-bounded), as in
// the Linux block layer's attempt_back/front_merge. Results are populated
// by FlushSync/FlushAsync.
func (p *Plug) Add(op Op, off, bytes, userLo int64) {
	seg := Segment{Op: op, Off: off, Bytes: bytes, UserLo: userLo, Cmd: -1}
	for i := range p.cmds {
		c := &p.cmds[i]
		if c.op != op || c.bytes+bytes > p.cfg.MergeWindowBytes {
			continue
		}
		switch {
		case c.off+c.bytes == off: // back merge
			c.bytes += bytes
		case off+bytes == c.off: // front merge
			c.off = off
			c.bytes += bytes
		default:
			continue
		}
		c.nsegs++
		seg.Cmd = i
		break
	}
	grew := seg.Cmd >= 0
	if seg.Cmd < 0 {
		p.cmds = append(p.cmds, command{op: op, off: off, bytes: bytes, nsegs: 1})
		seg.Cmd = len(p.cmds) - 1
	}
	p.segs = append(p.segs, seg)
	if grew {
		// Only a grown command can have become adjacent to another: a
		// fresh command adjacent to an existing one within the window
		// would have merged above.
		p.coalesce(p.segs[len(p.segs)-1].Cmd)
	}
}

// coalesce merges command grown (just extended by Add) with any command it
// became adjacent to, window permitting, compacting the command slice and
// re-pointing segment indices. Growth repeats on the survivor: absorbing a
// neighbor can expose another window-blocked neighbor on the far side.
func (p *Plug) coalesce(grown int) {
	for {
		merged := false
		a := &p.cmds[grown]
		for j := range p.cmds {
			if j == grown {
				continue
			}
			b := &p.cmds[j]
			if a.op != b.op || a.bytes+b.bytes > p.cfg.MergeWindowBytes {
				continue
			}
			if a.off+a.bytes != b.off && b.off+b.bytes != a.off {
				continue
			}
			// Merge the higher index into the lower to keep submission
			// order stable for queue-depth gating.
			lo, hi := grown, j
			if lo > hi {
				lo, hi = hi, lo
			}
			keep, gone := &p.cmds[lo], &p.cmds[hi]
			if gone.off < keep.off {
				keep.off = gone.off
			}
			keep.bytes += gone.bytes
			keep.nsegs += gone.nsegs
			p.cmds = append(p.cmds[:hi], p.cmds[hi+1:]...)
			for k := range p.segs {
				switch {
				case p.segs[k].Cmd == hi:
					p.segs[k].Cmd = lo
				case p.segs[k].Cmd > hi:
					p.segs[k].Cmd--
				}
			}
			grown = lo
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

// FlushSync unplugs: it dispatches the accumulated commands as blocking
// requests on the priority lane, gated by queue depth, retrying
// transient faults per rp, and blocks tl until the last command
// completes. It returns the first command error (all commands were
// already in flight, so later ones still complete; their segments carry
// individual results).
func (p *Plug) FlushSync(tl *simtime.Timeline, rp RetryPolicy) error {
	if len(p.cmds) == 0 {
		return nil
	}
	start := tl.Now()
	maxDone, firstErr := p.flushSyncFrom(telemetry.Current(tl), start, rp)
	p.finish()
	if maxDone > start {
		tl.WaitUntil(maxDone, simtime.WaitIO)
	}
	return firstErr
}

// flushSyncFrom is FlushSync's reservation pass: it dispatches the
// accumulated commands as blocking requests starting at start, without
// blocking any timeline and without mapping results back onto segments.
// A Stack flushes several member plugs from one start time this way and
// then waits once for the overall maximum. Callers must invoke finish()
// (or finishStack's equivalent) and wait on the returned completion.
func (p *Plug) flushSyncFrom(sp *telemetry.Span, start simtime.Time, rp RetryPolicy) (simtime.Time, error) {
	var maxDone simtime.Time
	var firstErr error
	for i := range p.cmds {
		c := &p.cmds[i]
		submit := start
		if i >= p.cfg.QueueDepth {
			if prev := p.cmds[i-p.cfg.QueueDepth].done; prev > submit {
				submit = prev
			}
		}
		p.dispatchSync(sp, c, submit, rp)
		if c.err != nil && firstErr == nil {
			firstErr = c.err
		}
		if c.done > maxDone {
			maxDone = c.done
		}
	}
	return maxDone, firstErr
}

// dispatchSync issues one command at submit on the priority lane, with
// bounded transient retry (clamped backoff pushes the re-submission out
// in virtual time).
func (p *Plug) dispatchSync(sp *telemetry.Span, c *command, submit simtime.Time, rp RetryPolicy) {
	d := p.dev
	for attempt := 0; ; {
		done, err := d.syncCmd(sp, c.op, c.bytes, submit, d.inject(c.op, c.off, c.bytes), c.nsegs)
		if err != nil && IsTransient(err) && attempt < rp.Max {
			attempt++
			backoffEnd := done.Add(rp.Backoff(attempt))
			sp.Child("dev.retry_backoff", telemetry.CatRetry, done, backoffEnd).
				Annotate("attempt", int64(attempt))
			p.retries++
			submit = backoffEnd
			continue
		}
		c.issued = err == nil
		c.err = err
		c.done = done
		return
	}
}

// FlushAsync unplugs asynchronously: commands reserve combined-lane
// device time from at without blocking any timeline, gated by queue
// depth. Congestion control is evaluated per command against the larger
// of the device's combined backlog and this flush's own advancing
// reservation horizon — once past congestionLimit (>0), the remaining
// commands are postponed (their segments marked Congested). A failed
// command aborts dispatch of the rest, as the unplugged path does.
//
// The horizon advances by at least each command's hold: the device is
// serial, so this flush alone needs that much device time past at. The
// floor matters because the ledger's bounded span ring forgets old
// reservations once a flush books more spans than the ring holds —
// reservation ends (and Backlog) then stop advancing, and without the
// floor an arbitrarily large flush would never look congested.
func (p *Plug) FlushAsync(at simtime.Time, congestionLimit simtime.Duration) {
	d := p.dev
	var horizon simtime.Time
	for i := range p.cmds {
		c := &p.cmds[i]
		if congestionLimit > 0 {
			b := d.Backlog(at)
			if h := horizon.Sub(at); h > b {
				b = h
			}
			if b > congestionLimit {
				for j := i; j < len(p.cmds); j++ {
					p.cmds[j].congested = true
				}
				break
			}
		}
		submit := at
		if i >= p.cfg.QueueDepth {
			if prev := p.cmds[i-p.cfg.QueueDepth].done; prev > submit {
				submit = prev
			}
		}
		admit, end, done, err := d.asyncCmd(c.op, c.bytes, submit, d.inject(c.op, c.off, c.bytes))
		c.err, c.done = err, done
		if err != nil {
			break
		}
		c.issued = true
		horizon = advanceHorizon(horizon, admit, end)
	}
	p.finish()
}

// advanceHorizon moves an async flush's congestion horizon past one
// command reserved over [admit, end): to the command's end, or by at least
// its hold when the ledger booked it earlier than the horizon.
func advanceHorizon(h, admit, end simtime.Time) simtime.Time {
	if nh := h.Add(end.Sub(admit)); nh > end {
		return nh
	}
	return end
}

// finish maps command results back onto segments and accounts the plug
// merge counters for successfully dispatched commands.
func (p *Plug) finish() {
	var segs, cmds, bytes int64
	for i := range p.cmds {
		if p.cmds[i].issued {
			segs += int64(p.cmds[i].nsegs)
			cmds++
			bytes += p.cmds[i].bytes
		}
	}
	if cmds > 0 {
		p.dev.countPlug(segs, cmds, bytes)
	}
	for i := range p.segs {
		c := &p.cmds[p.segs[i].Cmd]
		p.segs[i].Issued = c.issued
		p.segs[i].Congested = c.congested
		p.segs[i].Err = c.err
		p.segs[i].Done = c.done
	}
}
