package main

import "math/rand"

// Workload sizes. Each workload is one process with one goroutine
// generating load in a closed loop; the sizes are recorded in README.md
// and in the workload descriptions of BENCHMARK.json.
const (
	// seq-stream: one cold reader streams reads of 64KB to 192KB (128KB
	// on average) front to back through a file twice the page cache.
	// 2560MB / 128KB gives ~20k reads, so the p99.9 has ~20 samples
	// beyond it.
	seqCacheBytes = 1280 << 20
	seqFileBytes  = 2 * seqCacheBytes
	seqMinRead    = 64 << 10
	seqMaxRead    = 192 << 10

	// zipf-point: 4KB reads of three-fragment LSM-style chains scattered
	// over a dataset four times the cache; chains are picked zipfian.
	zipfCacheBytes = 32 << 20
	zipfFileBytes  = 4 * zipfCacheBytes
	zipfIO         = 4 << 10
	zipfFrags      = 3
	zipfSkew       = 1.2
	zipfWarmReads  = 60000
	zipfReads      = 90000

	// tenants-rw: four tenants, each with its own ring and file, issue
	// batches of seven reads and three writes with an fsync every
	// tenantFsyncEvery batches. The four files fill half the cache. The
	// tenants start cold, so the first reads go through the ring lanes to
	// the device.
	tenantCacheBytes = 64 << 20
	tenants          = 4
	tenantFileBytes  = tenantCacheBytes / 2 / tenants
	tenantIO         = 16 << 10
	tenantBatchReads = 7
	tenantBatchOps   = 10
	tenantFsyncEvery = 8
	tenantBatches    = 700
	tenantPoolBytes  = 1 << 20
)

// seqInput is the seq-stream load: read sizes in stream order.
type seqInput struct {
	sizes []int64
}

// genSeq draws page-aligned read sizes in [seqMinRead, seqMaxRead] until
// they cover the file; the last read is clipped to EOF.
func genSeq(seed int64) seqInput {
	rng := rand.New(rand.NewSource(seed))
	var in seqInput
	steps := int64((seqMaxRead-seqMinRead)/blockSize + 1)
	for off := int64(0); off < seqFileBytes; {
		n := seqMinRead + rng.Int63n(steps)*blockSize
		if off+n > seqFileBytes {
			n = seqFileBytes - off
		}
		in.sizes = append(in.sizes, n)
		off += n
	}
	return in
}

// zipfInput is the zipf-point load: read offsets for warm-up (set-up)
// and for the measured phase.
type zipfInput struct {
	warm, offs []int64
}

// genZipf scatters object chains over a permutation of the fragment
// slots, so successive fragments of one object are never adjacent, and
// reads whole chains picked by a zipfian draw.
func genZipf(seed int64) zipfInput {
	rng := rand.New(rand.NewSource(seed))
	slots := int64(zipfFileBytes / zipfIO)
	perm := rng.Perm(int(slots))
	objects := slots / zipfFrags
	z := rand.NewZipf(rng, zipfSkew, 1, uint64(objects-1))
	draw := func(n int) []int64 {
		offs := make([]int64, 0, n)
		for len(offs) < n {
			o := int64(z.Uint64())
			for f := int64(0); f < zipfFrags && len(offs) < n; f++ {
				offs = append(offs, int64(perm[o*zipfFrags+f])*zipfIO)
			}
		}
		return offs
	}
	return zipfInput{warm: draw(zipfWarmReads), offs: draw(zipfReads)}
}

// tenantOp is one ring operation: a read, or a write of pool bytes
// starting at data.
type tenantOp struct {
	write bool
	off   int64
	data  int64
}

// tenantsInput is the tenants-rw load: per tenant, its batches, and the
// pool write bytes come from.
type tenantsInput struct {
	pool    []byte
	batches [tenants][][]tenantOp
}

// genTenants draws each batch's ten operations on distinct slots of the
// tenant's file, so a read never overlaps a write of its own batch and
// the expected bytes are the reference as of the previous batch.
func genTenants(seed int64) tenantsInput {
	rng := rand.New(rand.NewSource(seed))
	var in tenantsInput
	in.pool = make([]byte, tenantPoolBytes)
	rng.Read(in.pool)
	slots := int(tenantFileBytes / tenantIO)
	for t := range in.batches {
		in.batches[t] = make([][]tenantOp, tenantBatches)
		for b := range in.batches[t] {
			ops := make([]tenantOp, tenantBatchOps)
			picked := rng.Perm(slots)[:tenantBatchOps]
			for i := range ops {
				ops[i].off = int64(picked[i]) * tenantIO
			}
			// Seven reads and three writes in a seeded order.
			for _, i := range rng.Perm(tenantBatchOps)[:tenantBatchOps-tenantBatchReads] {
				ops[i].write = true
				ops[i].data = rng.Int63n(tenantPoolBytes - tenantIO + 1)
			}
			in.batches[t][b] = ops
		}
	}
	return in
}
