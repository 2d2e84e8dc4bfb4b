package experiments

// The post-paper experiments (serve, overload, score, predict, tier)
// share one cell harness. A cell is {system config, workload, frontend}.
// For every cell the runner builds the system through newSys, provisions
// the synthetic files and drops caches, drives the frontend while
// byte-verifying every read against the file system's ground truth, runs
// the cross-layer telemetry audit, and — for deterministic frontends —
// reruns the cell and compares digests. The experiment's contracts are
// data, checked against the finished table.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	crossprefetch "repro"
	"repro/internal/crosslib"
	"repro/internal/fs"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// pattern is one access-pattern generator.
type pattern int

const (
	// patSeq streams front to back, wrapping at the end of the file.
	patSeq pattern = iota
	// patStrided reads every other slot.
	patStrided
	// patZipf reads zipf(1.2)-selected slots.
	patZipf
	// patZipfLSM reads zipf-selected "objects", each a chain of lsmFrags
	// fragments scattered over a permutation of the slots (an LSM
	// table's index/filter/data blocks), so a chain's fragments are
	// never adjacent.
	patZipfLSM
	// patInterleaved is one sequential stream with every eighth access
	// replaced by a random foreign slot: threads sharing a descriptor.
	patInterleaved
	// patQuarters is quarterStreams sequential streams round-robin on one
	// descriptor, each starting a quarter of the file apart.
	patQuarters
	// patUniform reads uniformly random slots: request-serving point
	// lookups that neither readahead nor the predictor can hide.
	patUniform
)

const (
	lsmFrags       = 3 // fragments per zipfian-LSM object chain
	quarterStreams = 4 // interleaved streams of patQuarters
)

// String names the pattern (table row key).
func (p pattern) String() string {
	return [...]string{"sequential", "strided", "zipfian", "zipfian-lsm",
		"interleaved-shared", "shared-file", "uniform"}[p]
}

// offsets returns the access sequence: n slot-aligned byte offsets over
// slots slots of io bytes (patZipfLSM finishes its last chain, so it may
// return up to lsmFrags-1 more). The sequence is a pure function of its
// arguments.
func (p pattern) offsets(slots, io int64, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]int64, 0, n+lsmFrags)
	switch p {
	case patSeq:
		for i := int64(0); len(offs) < n; i++ {
			offs = append(offs, i%slots*io)
		}
	case patStrided:
		for i := int64(0); len(offs) < n; i += 2 {
			offs = append(offs, i%slots*io)
		}
	case patZipf:
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(slots-1))
		for len(offs) < n {
			offs = append(offs, int64(zipf.Uint64())*io)
		}
	case patZipfLSM:
		perm := rng.Perm(int(slots))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(slots/lsmFrags-1))
		for len(offs) < n {
			o := int64(zipf.Uint64())
			for f := int64(0); f < lsmFrags; f++ {
				offs = append(offs, int64(perm[o*lsmFrags+f])*io)
			}
		}
	case patInterleaved:
		for i, pos := 0, int64(0); len(offs) < n; i++ {
			if i%8 == 7 {
				offs = append(offs, rng.Int63n(slots)*io)
				continue
			}
			offs = append(offs, pos%slots*io)
			pos++
		}
	case patQuarters:
		var pos [quarterStreams]int64
		for i := 0; len(offs) < n; i++ {
			s := i % quarterStreams
			offs = append(offs, (int64(s)*slots/quarterStreams+pos[s])%slots*io)
			pos[s]++
		}
	case patUniform:
		for len(offs) < n {
			offs = append(offs, rng.Int63n(slots)*io)
		}
	}
	return offs
}

// fileSpec is one synthetic file of a workload.
type fileSpec struct {
	name string
	size int64
}

// stream is one reader: its own timeline and descriptor over one file.
type stream struct {
	file   int   // index into loadSpec.files
	tenant int   // ring and budget tenant
	io     int64 // bytes per read
	offs   []int64
	burst  int // reads per turn of the round-robin drive (0 = 1)
}

// loadSpec is what a cell replays. Files are created and their streams
// opened in file order; the round-robin drive visits streams in stream
// order.
type loadSpec struct {
	files   []fileSpec
	streams []stream
	// openEarly opens the streams before the caches are dropped, so any
	// open-time prefetch is discarded with them.
	openEarly bool
	// budget, when > 0, is every tenant's hard page-cache budget (soft =
	// half of it).
	budget int64
}

// oneFile is the workload of readers descriptors over one file, each
// replaying n accesses of pattern p.
func oneFile(name string, size int64, p pattern, io int64, n, readers int, seed int64) loadSpec {
	w := loadSpec{files: []fileSpec{{name, size}}}
	for i := 0; i < readers; i++ {
		w.streams = append(w.streams, stream{io: io, offs: p.offsets(size/io, io, n, seed)})
	}
	return w
}

// frontend is how a cell's reads reach the kernel.
type frontend struct {
	// rings dispatches through one submission ring per tenant instead of
	// synchronous read calls.
	rings bool
	// concurrent runs every stream (and every ring's reaper) on its own
	// goroutine; the run is then not reproducible and is not rerun.
	// Otherwise one goroutine drives the streams round-robin.
	concurrent bool
	depth      int              // ring admission bound
	batch      int              // reads staged per Submit (concurrent rings)
	deadline   simtime.Duration // ring mode: deadline-carrying prefetch ahead of each read
}

// cell is one row of a post-paper experiment.
type cell struct {
	key  []string // leading row columns
	sys  crossprefetch.Config
	load loadSpec
	fe   frontend
}

func (c *cell) name() string { return strings.Join(c.key, "/") }

// streamRun is one stream's replay state.
type streamRun struct {
	*stream
	tl    *simtime.Timeline
	f     *crosslib.File
	ring  *crosslib.Ring
	truth *fs.Inode
	buf   []byte // read buffer
	want  []byte // ground-truth scratch
	next  int
	lat   []simtime.Duration // per completed read, in completion order
}

// cellRun is one finished replay of a cell.
type cellRun struct {
	sys          *crossprefetch.System
	streams      []*streamRun
	rings        []*crosslib.Ring // creation order
	reads, bytes int64            // client reads and bytes replayed
	end          simtime.Time     // concurrent frontends: latest goroutine clock
	// The warm half of stream 0, from its middle access on (deterministic
	// frontend): the fraction of read pages served without a demand
	// fetch, and read pages per virtual second.
	warmAt                 int
	warmHit, warmPagesPerS float64
	score                  *telemetry.ScorecardSnapshot // nil without scorecards
	scoreJSON              []byte
}

// latencies returns the sorted read latencies of the streams keep selects.
func (r *cellRun) latencies(keep func(*streamRun) bool) []simtime.Duration {
	var all []simtime.Duration
	for _, s := range r.streams {
		if keep(s) {
			all = append(all, s.lat...)
		}
	}
	return sorted(all)
}

// sorted returns a sorted copy of lat.
func sorted(lat []simtime.Duration) []simtime.Duration {
	s := append([]simtime.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pct is the p-th percentile of sorted latencies.
func pct(sorted []simtime.Duration, p int) simtime.Duration { return sorted[len(sorted)*p/100] }

func us(d simtime.Duration) string { return f1(float64(d) / float64(simtime.Microsecond)) }

// run replays the cell once on a fresh system.
func (c *cell) run() (*cellRun, error) {
	cfg := c.sys
	cfg.Telemetry = true // the audit below needs the recorder
	sys := newSys(cfg)
	r := &cellRun{sys: sys}
	if err := r.setup(&c.load, c.fe); err != nil {
		return nil, err
	}
	var err error
	switch {
	case c.fe.concurrent && c.fe.rings:
		err = r.serveRings(c.fe)
	case c.fe.concurrent:
		err = r.serveSync()
	default:
		err = r.drive(c.fe)
	}
	for _, ring := range r.rings {
		ring.Close()
	}
	if err != nil {
		return nil, err
	}
	if err := sys.AuditTelemetry(); err != nil {
		return nil, fmt.Errorf("telemetry audit: %w", err)
	}
	if n := sys.Kernel().SyscallCount(vfs.SysRead); c.fe.rings && n != 0 {
		return nil, fmt.Errorf("ring frontend made %d read syscalls, want 0", n)
	}
	if sc := sys.Scorecard(); sc != nil {
		r.score = sc.Snapshot()
		if r.scoreJSON, err = json.MarshalIndent(r.score, "", "  "); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// setup provisions the files, opens the streams (and per-tenant rings),
// applies budgets, and drops every cache.
func (r *cellRun) setup(w *loadSpec, fe frontend) error {
	sys := r.sys
	tl := sys.Timeline()
	truth := make([]*fs.Inode, len(w.files))
	for i, f := range w.files {
		if err := sys.CreateSynthetic(tl, f.name, f.size); err != nil {
			return err
		}
		ino, err := sys.FS().Open(f.name)
		if err != nil {
			return err
		}
		truth[i] = ino
	}
	r.streams = make([]*streamRun, len(w.streams))
	rings := map[int]*crosslib.Ring{}
	open := func() error {
		for fi, f := range w.files {
			for i := range w.streams {
				s := &w.streams[i]
				if s.file != fi {
					continue
				}
				sr := &streamRun{stream: s, tl: sys.Timeline(), truth: truth[fi],
					buf: make([]byte, s.io), want: make([]byte, s.io)}
				var err error
				if sr.f, err = sys.Open(sr.tl, f.name); err != nil {
					return err
				}
				if fe.rings {
					if rings[s.tenant] == nil {
						rings[s.tenant] = sys.Lib().NewRing(s.tenant, fe.depth)
						r.rings = append(r.rings, rings[s.tenant])
					}
					sr.ring = rings[s.tenant]
				}
				r.streams[i] = sr
				r.reads += int64(len(s.offs))
				r.bytes += int64(len(s.offs)) * s.io
			}
		}
		return nil
	}
	if w.openEarly {
		if err := open(); err != nil {
			return err
		}
	}
	if w.budget > 0 {
		for _, s := range w.streams {
			sys.SetTenantBudget(s.tenant, w.budget/2, w.budget)
		}
	}
	sys.DropAllCaches(tl)
	if !w.openEarly {
		return open()
	}
	return nil
}

// verify checks one completed read of n bytes into buf against ground
// truth.
func (s *streamRun) verify(buf []byte, off int64, n int) error {
	if n != len(buf) {
		return fmt.Errorf("short read %d at %d", n, off)
	}
	want := s.want[:n]
	s.truth.ReadAt(want, off)
	if !bytes.Equal(buf, want) {
		return fmt.Errorf("corrupt data at %d", off)
	}
	return nil
}

// drive is the deterministic frontend: one goroutine visits the streams
// round-robin, burst reads per turn, each read synchronous or one ring
// submission reaped before the next.
func (r *cellRun) drive(fe frontend) error {
	rec := r.sys.Telemetry()
	s0 := r.streams[0]
	r.warmAt = len(s0.offs) / 2
	var warmT0 simtime.Time
	var warmDemand0 int64
	for progress := true; progress; {
		progress = false
		for i, s := range r.streams {
			for k := 0; k < max(s.burst, 1) && s.next < len(s.offs); k++ {
				if i == 0 && s.next == r.warmAt {
					warmT0 = s.tl.Now()
					warmDemand0 = rec.CounterValue(telemetry.CtrVFSDemandFetchPages)
				}
				off := s.offs[s.next]
				s.next++
				var err error
				if fe.rings {
					err = s.ringRead(off, fe.deadline)
				} else {
					t0 := s.tl.Now()
					var n int
					if n, err = s.f.ReadAt(s.tl, s.buf, off); err == nil {
						err = s.verify(s.buf, off, n)
						s.lat = append(s.lat, s.tl.Now().Sub(t0))
					}
				}
				if err != nil {
					return fmt.Errorf("stream %d: %w", i, err)
				}
				progress = true
			}
		}
	}
	warmPages := int64(len(s0.offs)-r.warmAt) * s0.io / r.sys.Kernel().BlockSize()
	demand := min(rec.CounterValue(telemetry.CtrVFSDemandFetchPages)-warmDemand0, warmPages)
	r.warmHit = 1 - float64(demand)/float64(warmPages)
	if dt := s0.tl.Now() - warmT0; dt > 0 {
		r.warmPagesPerS = float64(warmPages) / (float64(dt) / 1e9)
	}
	return nil
}

// ringRead is one read through the stream's ring: an optional
// deadline-carrying prefetch (sheddable; never the read), the read
// itself, one submission, and one reap.
func (s *streamRun) ringRead(off int64, deadline simtime.Duration) error {
	if deadline > 0 {
		d := s.tl.Now().Add(deadline)
		if err := s.ring.PrepPrefetchDeadline(s.f, off, s.io, ^uint64(0), d); err != nil {
			return err
		}
	}
	prepAt := s.tl.Now()
	if err := s.ring.PrepRead(s.f, s.buf, off, uint64(s.next)); err != nil {
		return err
	}
	s.ring.Submit(s.tl)
	for _, cq := range s.ring.Reap(s.tl, 1) {
		if cq.User == ^uint64(0) {
			continue // prefetch CQE; sheds are visible in the counters
		}
		if cq.Err != nil {
			return fmt.Errorf("read at %d: %w", off, cq.Err)
		}
		if err := s.verify(s.buf, off, int(cq.N)); err != nil {
			return err
		}
		s.lat = append(s.lat, cq.Done.Sub(prepAt))
	}
	return nil
}

// endpoints collects goroutine end clocks and the first error.
type endpoints struct {
	mu   sync.Mutex
	last simtime.Time
	err  error
}

func (e *endpoints) note(end simtime.Time, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.last = max(e.last, end)
	if err != nil && e.err == nil {
		e.err = err
	}
}

func (r *cellRun) finish(e *endpoints) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r.end = e.last
	return e.err
}

// serveSync is the blocking baseline: every stream is its own thread
// issuing one synchronous read per access — one kernel crossing and one
// device command at a time.
func (r *cellRun) serveSync() error {
	ends := &endpoints{}
	var wg sync.WaitGroup
	for i, s := range r.streams {
		s.lat = make([]simtime.Duration, len(s.offs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, off := range s.offs {
				t0 := s.tl.Now()
				n, err := s.f.ReadAt(s.tl, s.buf, off)
				if err == nil {
					err = s.verify(s.buf, off, n)
				}
				if err != nil {
					ends.note(0, fmt.Errorf("stream %d: %w", i, err))
					return
				}
				s.lat[j] = s.tl.Now().Sub(t0)
			}
			ends.note(s.tl.Now(), nil)
		}()
	}
	wg.Wait()
	return r.finish(ends)
}

// serveRings drives the ring frontend: each tenant's streams share its
// ring, a per-tenant reaper drains and verifies completions
// concurrently, and ring-full backpressure is the admission control. A
// stream stages fe.batch reads, then submits them as one kernel
// crossing; the kernel's lane scheduler sees every tenant's staged work
// at once. Any stream's Submit may carry another stream's staged reads,
// so a read buffer returns to its stream only once its completion is
// reaped and verified.
func (r *cellRun) serveRings(fe frontend) error {
	ends := &endpoints{}
	var sessions, reapers sync.WaitGroup
	pending := map[*crosslib.Ring]int{}
	prepAt := make([][]simtime.Time, len(r.streams))
	bufOf := make([][][]byte, len(r.streams))
	free := make([]chan []byte, len(r.streams))
	for i, s := range r.streams {
		pending[s.ring] += len(s.offs)
		s.lat = make([]simtime.Duration, len(s.offs))
		prepAt[i] = make([]simtime.Time, len(s.offs))
		bufOf[i] = make([][]byte, len(s.offs))
		// One buffer more than a batch: while a stream waits for a
		// buffer, at least two of its reads are submitted.
		free[i] = make(chan []byte, fe.batch+1)
		free[i] <- s.buf
		for len(free[i]) < cap(free[i]) {
			free[i] <- make([]byte, s.io)
		}
	}
	for _, ring := range r.rings {
		reapers.Add(1)
		go func() {
			defer reapers.Done()
			tl := simtime.NewTimeline(0)
			for left := pending[ring]; left > 0; {
				cqs := ring.Reap(tl, 1)
				if len(cqs) == 0 {
					return // ring closed early (a stream errored out)
				}
				for _, cq := range cqs {
					left--
					i, j := int(cq.User>>32), int(uint32(cq.User))
					s, buf := r.streams[i], bufOf[i][j]
					err := cq.Err
					if err == nil {
						err = s.verify(buf, s.offs[j], int(cq.N))
					}
					if err != nil {
						ends.note(0, fmt.Errorf("stream %d: read %d: %w", i, j, err))
					}
					s.lat[j] = cq.Done.Sub(prepAt[i][j])
					free[i] <- buf
				}
			}
			ends.note(tl.Now(), nil)
		}()
	}
	for i, s := range r.streams {
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			staged := 0
			for j, off := range s.offs {
				bufOf[i][j] = <-free[i]
				prepAt[i][j] = s.tl.Now()
				// Ring-full is the admission control: yield until the
				// reaper frees a slot.
				for s.ring.PrepRead(s.f, bufOf[i][j], off, uint64(i)<<32|uint64(j)) != nil {
					runtime.Gosched()
				}
				if staged++; staged == fe.batch || j == len(s.offs)-1 {
					s.ring.Submit(s.tl)
					staged = 0
				}
			}
			ends.note(s.tl.Now(), nil)
		}()
	}
	sessions.Wait()
	for _, ring := range r.rings {
		ring.Close() // every completion is queued by now: no reaper blocks forever
	}
	reapers.Wait()
	return r.finish(ends)
}

// digest fingerprints a replay: its table row, every read latency, the
// tenant ledgers, the device stack's per-member service, and the
// scorecard JSON. Identical seeds must reproduce it exactly.
func (r *cellRun) digest(row []string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, c := range row {
		h.Write([]byte(c + "|"))
	}
	for _, s := range r.streams {
		for _, d := range s.lat {
			put(int64(d))
		}
		put(-1)
	}
	for _, ts := range r.sys.TenantStats() {
		put(int64(ts.ID))
		put(ts.Resident)
		put(ts.Inserted)
		put(ts.Evicted)
	}
	for _, ms := range r.sys.Stack().MemberStats() {
		put(ms.ReadOps)
		put(ms.ReadBytes)
		put(ms.PlugCommands)
		put(int64(ms.Busy))
	}
	h.Write(r.scoreJSON)
	return h.Sum64()
}

// experiment is one post-paper table: its cells, how a finished replay
// becomes a row, and the contracts the table must satisfy.
type experiment struct {
	id, title string
	columns   []string
	notes     []string
	cells     []cell
	row       func(c *cell, r *cellRun) []string
	contracts []contract
}

// run replays every cell, reruns the deterministic ones against their
// digest, and checks the contracts on the finished table.
func (e *experiment) run() (*Table, error) {
	t := &Table{ID: e.id, Title: e.title, Columns: e.columns, Notes: e.notes}
	for i := range e.cells {
		c := &e.cells[i]
		r, err := c.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name(), err)
		}
		row := e.row(c, r)
		if !c.fe.concurrent {
			again, err := c.run()
			if err != nil {
				return nil, fmt.Errorf("%s (rerun): %w", c.name(), err)
			}
			d1, d2 := r.digest(row), again.digest(e.row(c, again))
			if d1 != d2 || !bytes.Equal(r.scoreJSON, again.scoreJSON) {
				return nil, fmt.Errorf("%s: nondeterministic (digest %x vs %x)", c.name(), d1, d2)
			}
		}
		t.AddRow(row...)
	}
	if err := checkContracts(t, e.contracts); err != nil {
		return nil, err
	}
	return t, nil
}

// cmp is a contract comparator.
type cmp int

const (
	ge cmp = iota
	gt
	le
	lt
	eq
)

func (c cmp) String() string { return [...]string{">=", ">", "<=", "<", "=="}[c] }

func (c cmp) holds(v, bound float64) bool {
	return [...]bool{v >= bound, v > bound, v <= bound, v < bound, v == bound}[c]
}

// contract is one claim about a finished table: the cell's value in
// column col compares (op) against factor*ref+offset, where ref is the
// reference cell's value in the same column (without a reference cell
// the bound is offset; a zero factor means 1). A non-empty is instead
// requires the cell's text to equal it exactly.
type contract struct {
	col    string
	cell   []string
	op     cmp
	ref    []string
	factor float64
	offset float64
	is     string
}

// lookup returns the text in column col of the row whose leading columns
// are key.
func lookup(t *Table, col string, key []string) (string, error) {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		return "", fmt.Errorf("no column %q", col)
	}
rows:
	for _, row := range t.Rows {
		for i, k := range key {
			if row[i] != k {
				continue rows
			}
		}
		return row[ci], nil
	}
	return "", fmt.Errorf("no row %s", strings.Join(key, "/"))
}

// value parses a numeric cell ("1.25x" reads as 1.25).
func value(t *Table, col string, key []string) (float64, error) {
	s, err := lookup(t, col, key)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
}

// checkContracts evaluates every contract and reports all violations.
func checkContracts(t *Table, cs []contract) error {
	var errs []error
	for _, c := range cs {
		where := strings.Join(c.cell, "/") + " " + c.col
		if c.is != "" {
			got, err := lookup(t, c.col, c.cell)
			if err == nil && got != c.is {
				err = fmt.Errorf("%q, want %q", got, c.is)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", where, err))
			}
			continue
		}
		v, err := value(t, c.col, c.cell)
		bound, desc := c.offset, fmt.Sprintf("%g", c.offset)
		if err == nil && c.ref != nil {
			var ref float64
			ref, err = value(t, c.col, c.ref)
			factor := c.factor
			if factor == 0 {
				factor = 1
			}
			bound = factor*ref + c.offset
			desc = fmt.Sprintf("%g x %s (%g) %+g", factor, strings.Join(c.ref, "/"), ref, c.offset)
		}
		if err == nil && !c.op.holds(v, bound) {
			err = fmt.Errorf("%g, want %s %s", v, c.op, desc)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", where, err))
		}
	}
	return errors.Join(errs...)
}
