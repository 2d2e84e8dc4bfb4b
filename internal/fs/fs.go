// Package fs implements the simulated file systems beneath the page cache.
//
// Two layout policies are provided, matching the paper's evaluation targets:
//
//   - LayoutExtent models ext4: files get contiguous physical extents when
//     possible, metadata updates pay a journal transaction, and overwrites
//     are in place.
//   - LayoutLog models F2FS: every block write is appended at the log head,
//     so random writes become physically sequential while overwritten
//     blocks are remapped.
//
// The file system stores real data for written blocks (the LSM store and
// compression workloads depend on content round-tripping) but keeps
// never-written blocks of synthetic files unmaterialized, so experiments
// can use multi-gigabyte logical files without the host RAM to match.
// Timing is charged by the callers (the VFS layer) using the physical-run
// mapping this package exposes; only metadata operations charge time here,
// via the journal ledger.
package fs

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/simtime"
)

// Layout selects the block allocation policy.
type Layout int

const (
	// LayoutExtent is the ext4-like in-place, extent-based layout.
	LayoutExtent Layout = iota
	// LayoutLog is the F2FS-like log-structured layout.
	LayoutLog
)

// String names the layout.
func (l Layout) String() string {
	if l == LayoutLog {
		return "f2fs"
	}
	return "ext4"
}

const unmapped = int64(-1)

// dataShards spreads block contents over independently locked maps.
const dataShards = 32

type dataShard struct {
	mu     sync.RWMutex
	blocks map[int64][]byte
}

// FS is a simulated file system instance on one device.
type FS struct {
	layout    Layout
	blockSize int64

	mu      sync.RWMutex
	files   map[string]*Inode
	byID    map[int64]*Inode
	nextIno int64

	allocMu  sync.Mutex
	nextPhys int64 // bump allocator / log head

	journal *simtime.Ledger
	costs   simtime.Costs

	data [dataShards]dataShard
}

// New returns an empty file system with the given layout and block size.
func New(layout Layout, blockSize int64, costs simtime.Costs) *FS {
	if blockSize <= 0 {
		blockSize = 4096
	}
	f := &FS{
		layout:    layout,
		blockSize: blockSize,
		files:     make(map[string]*Inode),
		byID:      make(map[int64]*Inode),
		journal:   simtime.NewLedger(layout.String() + ".journal"),
		costs:     costs,
	}
	for i := range f.data {
		f.data[i].blocks = make(map[int64][]byte)
	}
	return f
}

// Layout reports the allocation policy.
func (f *FS) Layout() Layout { return f.layout }

// BlockSize reports the file system block size.
func (f *FS) BlockSize() int64 { return f.blockSize }

// Inode is a simulated file.
type Inode struct {
	fs   *FS
	id   int64
	name string

	mu   sync.RWMutex
	size int64
	phys []int64 // logical block index -> physical block, unmapped if absent
}

// ID reports the inode number.
func (ino *Inode) ID() int64 { return ino.id }

// Name reports the file's path.
func (ino *Inode) Name() string { return ino.name }

// Size reports the file size in bytes.
func (ino *Inode) Size() int64 {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	return ino.size
}

// Blocks reports the file size in whole blocks (rounded up).
func (ino *Inode) Blocks() int64 {
	return (ino.Size() + ino.fs.blockSize - 1) / ino.fs.blockSize
}

// metadataOp charges a journal transaction for metadata-updating layouts.
// F2FS-like layouts log metadata with data and pay roughly half the cost.
func (f *FS) metadataOp(tl *simtime.Timeline) {
	if tl == nil {
		return
	}
	cost := f.costs.JournalOp
	if f.layout == LayoutLog {
		cost /= 2
	}
	f.journal.Use(tl, cost)
}

// Create creates an empty file, charging a metadata transaction.
func (f *FS) Create(tl *simtime.Timeline, name string) (*Inode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[name]; ok {
		return nil, fmt.Errorf("fs: create %s: file exists", name)
	}
	f.nextIno++
	ino := &Inode{fs: f, id: f.nextIno, name: name}
	f.files[name] = ino
	f.byID[ino.id] = ino
	f.metadataOp(tl)
	return ino, nil
}

// InodeByID looks up an inode by number, or nil for a deleted/unknown
// file. The page cache's writeback hook uses it to map a dirty run's
// logical blocks to device offsets.
func (f *FS) InodeByID(id int64) *Inode {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.byID[id]
}

// CreateSynthetic creates a file of the given logical size whose blocks are
// fully mapped (contiguous under LayoutExtent) but hold no materialized
// data: reads return deterministic filler. This is how microbenchmarks get
// paper-scale (hundreds of GB logical) files without host RAM.
func (f *FS) CreateSynthetic(tl *simtime.Timeline, name string, size int64) (*Inode, error) {
	ino, err := f.Create(tl, name)
	if err != nil {
		return nil, err
	}
	nblocks := (size + f.blockSize - 1) / f.blockSize
	start := f.allocRun(nblocks)
	ino.mu.Lock()
	ino.size = size
	ino.phys = make([]int64, nblocks)
	for i := range ino.phys {
		ino.phys[i] = start + int64(i)
	}
	ino.mu.Unlock()
	return ino, nil
}

// Open looks up an existing file.
func (f *FS) Open(name string) (*Inode, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ino, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: open %s: no such file", name)
	}
	return ino, nil
}

// Remove deletes a file and discards its materialized data.
func (f *FS) Remove(tl *simtime.Timeline, name string) error {
	f.mu.Lock()
	ino, ok := f.files[name]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("fs: remove %s: no such file", name)
	}
	delete(f.files, name)
	delete(f.byID, ino.id)
	f.mu.Unlock()

	ino.mu.Lock()
	phys := ino.phys
	ino.phys = nil
	ino.size = 0
	ino.mu.Unlock()
	for _, p := range phys {
		if p != unmapped {
			f.dropBlock(p)
		}
	}
	f.metadataOp(tl)
	return nil
}

// List returns all file names, sorted.
func (f *FS) List() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	names := make([]string, 0, len(f.files))
	for n := range f.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FileCount reports the number of files.
func (f *FS) FileCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.files)
}

// allocRun reserves n physical blocks. Under both layouts the bump
// allocator yields contiguous runs; the layouts differ in *when* they
// allocate (extent: once per file region, in place thereafter; log: on
// every write).
func (f *FS) allocRun(n int64) int64 {
	f.allocMu.Lock()
	defer f.allocMu.Unlock()
	start := f.nextPhys
	f.nextPhys += n
	return start
}

func (f *FS) shard(phys int64) *dataShard {
	return &f.data[phys%dataShards]
}

func (f *FS) dropBlock(phys int64) {
	s := f.shard(phys)
	s.mu.Lock()
	delete(s.blocks, phys)
	s.mu.Unlock()
}

// PhysRun is a contiguous run of physical blocks backing a contiguous run
// of logical blocks.
type PhysRun struct {
	Logical int64 // first logical block
	Phys    int64 // first physical block
	Count   int64
}

// MapRange returns the physical runs backing logical blocks [lo, hi),
// coalescing physically contiguous blocks. Unmapped (hole) blocks are
// omitted; callers treat them as zero-fill without device I/O.
func (ino *Inode) MapRange(lo, hi int64) []PhysRun {
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	if lo < 0 {
		lo = 0
	}
	if max := int64(len(ino.phys)); hi > max {
		hi = max
	}
	var runs []PhysRun
	for i := lo; i < hi; {
		p := ino.phys[i]
		if p == unmapped {
			i++
			continue
		}
		run := PhysRun{Logical: i, Phys: p, Count: 1}
		for i+run.Count < hi && ino.phys[i+run.Count] == p+run.Count {
			run.Count++
		}
		runs = append(runs, run)
		i += run.Count
	}
	return runs
}

// ensureBlocks grows the mapping slice (not the allocation) to cover block
// index hi-1. Caller holds ino.mu.
func (ino *Inode) ensureBlocks(hi int64) {
	for int64(len(ino.phys)) < hi {
		ino.phys = append(ino.phys, unmapped)
	}
}

// WriteAt writes data at byte offset off, allocating blocks according to
// the layout policy and extending the file size as needed. It returns the
// number of newly allocated blocks (callers charge metadata time when > 0).
func (ino *Inode) WriteAt(data []byte, off int64) (newBlocks int64) {
	if len(data) == 0 {
		return 0
	}
	bs := ino.fs.blockSize
	ino.mu.Lock()
	defer ino.mu.Unlock()

	end := off + int64(len(data))
	ino.ensureBlocks((end + bs - 1) / bs)
	if end > ino.size {
		ino.size = end
	}

	pos := off
	for pos < end {
		blk := pos / bs
		blkOff := pos % bs
		n := bs - blkOff
		if rem := end - pos; rem < n {
			n = rem
		}
		phys := ino.phys[blk]
		switch {
		case phys == unmapped:
			phys = ino.fs.allocRun(1)
			ino.phys[blk] = phys
			newBlocks++
		case ino.fs.layout == LayoutLog:
			// Log-structured: overwrites remap to the log head.
			old := phys
			phys = ino.fs.allocRun(1)
			// Carry over the rest of the block on partial overwrite.
			if blkOff != 0 || n != bs {
				ino.fs.copyBlock(old, phys)
			}
			ino.fs.dropBlock(old)
			ino.phys[blk] = phys
			newBlocks++
		}
		ino.fs.writeBlockData(phys, blkOff, data[pos-off:pos-off+n])
		pos += n
	}
	return newBlocks
}

// ReadAt fills dst with file content starting at byte offset off, stopping
// at EOF. Unmaterialized blocks yield deterministic filler derived from
// the physical block number. It returns the number of bytes read.
func (ino *Inode) ReadAt(dst []byte, off int64) int {
	bs := ino.fs.blockSize
	ino.mu.RLock()
	size := ino.size
	ino.mu.RUnlock()
	if off >= size {
		return 0
	}
	end := off + int64(len(dst))
	if end > size {
		end = size
	}
	pos := off
	for pos < end {
		blk := pos / bs
		blkOff := pos % bs
		n := bs - blkOff
		if rem := end - pos; rem < n {
			n = rem
		}
		ino.mu.RLock()
		phys := unmapped
		if blk < int64(len(ino.phys)) {
			phys = ino.phys[blk]
		}
		ino.mu.RUnlock()
		ino.fs.readBlockData(phys, blkOff, dst[pos-off:pos-off+n])
		pos += n
	}
	return int(end - off)
}

// Truncate sets the file size, discarding mappings beyond it.
func (ino *Inode) Truncate(tl *simtime.Timeline, size int64) {
	bs := ino.fs.blockSize
	ino.mu.Lock()
	keep := (size + bs - 1) / bs
	var dropped []int64
	if keep < int64(len(ino.phys)) {
		for _, p := range ino.phys[keep:] {
			if p != unmapped {
				dropped = append(dropped, p)
			}
		}
		ino.phys = ino.phys[:keep]
	}
	ino.size = size
	ino.mu.Unlock()
	for _, p := range dropped {
		ino.fs.dropBlock(p)
	}
	ino.fs.metadataOp(tl)
}

func (f *FS) writeBlockData(phys, off int64, data []byte) {
	s := f.shard(phys)
	s.mu.Lock()
	blk := s.blocks[phys]
	if blk == nil {
		blk = make([]byte, f.blockSize)
		fillSynthetic(blk, phys)
		s.blocks[phys] = blk
	}
	copy(blk[off:], data)
	s.mu.Unlock()
}

func (f *FS) copyBlock(from, to int64) {
	s := f.shard(from)
	dst := make([]byte, f.blockSize)
	// A materialized block is copied under the shard lock: writeBlockData
	// mutates it in place under the same lock.
	s.mu.RLock()
	src := s.blocks[from]
	if src != nil {
		copy(dst, src)
	}
	s.mu.RUnlock()
	if src == nil {
		fillSynthetic(dst, from)
	}
	d := f.shard(to)
	d.mu.Lock()
	d.blocks[to] = dst
	d.mu.Unlock()
}

func (f *FS) readBlockData(phys, off int64, dst []byte) {
	if phys == unmapped {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	s := f.shard(phys)
	s.mu.RLock()
	blk := s.blocks[phys]
	if blk != nil {
		// Copy under the lock: writeBlockData mutates materialized
		// blocks in place. Synthetic (nil) blocks fill lock-free.
		copy(dst, blk[off:])
	}
	s.mu.RUnlock()
	if blk == nil {
		fillSyntheticAt(dst, phys, off)
	}
}

// fillSynthetic writes the deterministic filler pattern for an
// unmaterialized block.
func fillSynthetic(dst []byte, phys int64) { fillSyntheticAt(dst, phys, 0) }

// fillSyntheticAt generates byte pos as byte((x >> (8*(pos%8))) ^ pos).
// It runs on every copy-out of never-written file content, so the bulk is
// done a word at a time: for pos aligned to 8, the eight pattern bytes are
// byte(x>>8j) ^ (byte(pos)+j) with no per-lane carry, i.e. one 64-bit
// xor/add against precomputable lane constants.
func fillSyntheticAt(dst []byte, phys, off int64) {
	x := uint64(phys)*0x9e3779b97f4a7c15 + 1
	pos := uint64(off)
	i := 0
	for ; i < len(dst) && pos%8 != 0; i++ {
		dst[i] = byte((x >> (8 * (pos % 8))) ^ pos)
		pos++
	}
	const lanes = 0x0101010101010101
	const laneIdx = 0x0706050403020100
	for ; i+8 <= len(dst); i, pos = i+8, pos+8 {
		binary.LittleEndian.PutUint64(dst[i:], x^(laneIdx+lanes*uint64(byte(pos))))
	}
	for ; i < len(dst); i++ {
		dst[i] = byte((x >> (8 * (pos % 8))) ^ pos)
		pos++
	}
}

// JournalStats exposes journal contention counters (metadata-heavy
// workloads like the mongodb filebench profile stress this).
func (f *FS) JournalStats() simtime.LedgerStats { return f.journal.Stats() }
