package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc64"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/fs"
	"repro/internal/simtime"
)

// digest is an FNV-1a fold over integers and bytes: the determinism
// digest of a pass's virtual outputs and the inputs' fingerprint.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) ints(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
		d.h.Write(d.buf[:])
	}
}

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) sum() uint64 { return d.h.Sum64() }

// reference is the benchmark's own copy of the expected file content: a
// separate file system holding the same synthetic files, created in the
// same order so they map to the same physical blocks and therefore hold
// the same filler bytes. Every call into its fs.Inode.ReadAt is timed,
// which gives host.fs_fill_ns_per_kb; none of it counts toward
// host_ops_s or setup_s.
type reference struct {
	fsys   *fs.FS
	files  []*fs.Inode
	fillNs int64
	fillKB float64
}

func newReference(names []string, size int64) (*reference, error) {
	r := &reference{fsys: fs.New(fs.LayoutExtent, blockSize, simtime.DefaultCosts())}
	for _, name := range names {
		ino, err := r.fsys.CreateSynthetic(nil, name, size)
		if err != nil {
			return nil, fmt.Errorf("reference: create %s: %w", name, err)
		}
		r.files = append(r.files, ino)
	}
	return r, nil
}

// readAt fills dst with file i's expected content at off.
func (r *reference) readAt(i int, dst []byte, off int64) {
	t0 := time.Now()
	r.files[i].ReadAt(dst, off)
	r.fillNs += int64(time.Since(t0))
	r.fillKB += float64(len(dst)) / 1024
}

// contentDigest is a CRC-64 over a fixed, seed-independent sample of
// every reference file: 64 spans of 1 byte to 8KB at unaligned offsets.
// Each workload pins its value (pinnedContent), so a change to the
// synthetic content generator cannot pass by changing the program and
// the reference together.
func (r *reference) contentDigest() uint64 {
	rng := rand.New(rand.NewSource(0x5eed))
	tab := crc64.MakeTable(crc64.ECMA)
	var crc uint64
	buf := make([]byte, 8<<10)
	for i, ino := range r.files {
		for k := 0; k < 64; k++ {
			n := 1 + rng.Int63n(int64(len(buf)))
			off := rng.Int63n(ino.Size() - n + 1)
			r.readAt(i, buf[:n], off)
			crc = crc64.Update(crc, tab, buf[:n])
		}
	}
	return crc
}

// pinnedContent is contentDigest per workload. The base content of every
// workload is independent of the seed (the seed picks offsets, sizes and
// written bytes, never the files), so one value pins every seed.
var pinnedContent = map[string]uint64{
	"seq-stream": 0xf5413fb0da6110e7,
	"zipf-point": 0x130b1b13a622d982,
	"tenants-rw": 0x4daeaa6fc6ab0aa5,
}

// checkContent compares the reference sample with the pinned digest.
func checkContent(workload string, r *reference) error {
	got := r.contentDigest()
	if want := pinnedContent[workload]; got != want {
		return fmt.Errorf("%s: synthetic content digest %#x, pinned %#x", workload, got, want)
	}
	return nil
}
