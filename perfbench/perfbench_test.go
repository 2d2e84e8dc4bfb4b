package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// inputDigest fingerprints a generated input.
func inputDigest(v any) uint64 {
	d := newDigest()
	switch in := v.(type) {
	case seqInput:
		d.ints(in.sizes...)
	case zipfInput:
		d.ints(in.warm...)
		d.ints(in.offs...)
	case tenantsInput:
		d.bytes(in.pool)
		for _, bs := range in.batches {
			for _, b := range bs {
				for _, op := range b {
					w := int64(0)
					if op.write {
						w = 1
					}
					d.ints(w, op.off, op.data)
				}
			}
		}
	default:
		panic(fmt.Sprintf("inputDigest: unknown input %T", v))
	}
	return d.sum()
}

// shortInput cuts a workload's input down so a pass runs in well under a
// second; the passes and checks are the same as a full run's.
func shortInput(t *testing.T, name string, seed int64) any {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	switch in := w.gen(seed).(type) {
	case seqInput:
		in.sizes = in.sizes[:600]
		return in
	case zipfInput:
		in.warm, in.offs = in.warm[:3000], in.offs[:3000]
		return in
	case tenantsInput:
		for i := range in.batches {
			in.batches[i] = in.batches[i][:40]
		}
		return in
	default:
		t.Fatalf("unknown input %T", in)
		return nil
	}
}

func runShort(t *testing.T, name string, seed int64, traced bool) *passResult {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	p := newPass(traced)
	if err := w.run(p, shortInput(t, name, seed)); err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	p.finish(name, seed)
	if p.r.failed+p.r.warmFailed != 0 {
		t.Fatalf("%s: %d failed operations, first: %s", name, p.r.failed+p.r.warmFailed, p.r.firstFailure)
	}
	return p.r
}

func TestGeneratorsReproducibleAndSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputDigest(w.gen(7)), inputDigest(w.gen(7)), inputDigest(w.gen(8))
		if a != b {
			t.Errorf("%s: seed 7 gave inputs %#x and %#x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs %#x", w.name, a)
		}
	}
}

func TestTenantBatchesTouchDistinctSlots(t *testing.T) {
	in := genTenants(3)
	for tn, batches := range in.batches {
		for b, ops := range batches {
			seen := map[int64]bool{}
			writes := 0
			for _, op := range ops {
				if seen[op.off] {
					t.Fatalf("tenant %d batch %d: offset %d used twice", tn, b, op.off)
				}
				seen[op.off] = true
				if op.write {
					writes++
				}
			}
			if writes != tenantBatchOps-tenantBatchReads {
				t.Fatalf("tenant %d batch %d: %d writes", tn, b, writes)
			}
		}
	}
}

func TestVerifierRejectsOneFlippedByte(t *testing.T) {
	const size, n = 4 << 20, 64 << 10
	ref, err := newReference([]string{"f"}, size)
	if err != nil {
		t.Fatal(err)
	}
	p := newPass(false)
	s, err := openReader(p, ref, 1<<20, size, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.beginMeasured()
	s.read(12345, n)
	if p.r.failed != 0 {
		t.Fatalf("correct read rejected: %s", p.r.firstFailure)
	}
	for i, k := range []int{0, 1, 4095, 4096, n - 1} {
		s.buf[k] ^= 0x01
		s.verify(12345, n, n, nil)
		s.buf[k] ^= 0x01
		if p.r.failed != int64(i+1) {
			t.Fatalf("flipped byte %d accepted", k)
		}
	}
}

func TestPinnedContentDigest(t *testing.T) {
	for _, name := range []string{"seq-stream", "zipf-point"} {
		size := int64(seqFileBytes)
		if name == "zipf-point" {
			size = zipfFileBytes
		}
		ref, err := newReference([]string{name}, size)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkContent(name, ref); err != nil {
			t.Error(err)
		}
	}
	// A different file (here: a different size, so different sample
	// offsets) must not match the pin.
	ref, err := newReference([]string{"zipf-point"}, zipfFileBytes/2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkContent("zipf-point", ref); err == nil {
		t.Error("content of another file matched the pinned digest")
	}
}

// TestShortPassesDeterministicAndAttributed runs every workload briefly,
// untraced and traced: the digests must agree (tracing only observes),
// and the traced pass's layer and category buckets must each sum exactly
// to the measured virtual latency (endMeasured fails the pass otherwise;
// the sums are checked again here).
func TestShortPassesDeterministicAndAttributed(t *testing.T) {
	for _, w := range workloads {
		plain := runShort(t, w.name, 5, false)
		again := runShort(t, w.name, 5, false)
		traced := runShort(t, w.name, 5, true)
		if plain.digest != again.digest || plain.digest != traced.digest {
			t.Errorf("%s: digests %#x, %#x, traced %#x", w.name, plain.digest, again.digest, traced.digest)
		}
		if plain.ops == 0 || len(plain.readLat) == 0 {
			t.Errorf("%s: no measured reads", w.name)
		}
		a := traced.attr
		layers, cats := a.reapWait, a.reapWait
		for _, ns := range a.layers {
			layers += ns
		}
		for _, ns := range a.cats {
			cats += ns
		}
		if layers != traced.measuredNs || cats != traced.measuredNs || traced.measuredNs == 0 {
			t.Errorf("%s: layers %d ns, categories %d ns, measured %d ns", w.name, layers, cats, traced.measuredNs)
		}
	}
}

func TestDigestChangesWithOneLatency(t *testing.T) {
	p := newPass(false)
	p.r.readLat = []int64{1000, 2000, 3000}
	p.r.ops = 3
	p.finish("w", 1)
	before := p.r.digest
	p.finish("w", 1)
	if p.r.digest != before {
		t.Fatal("digest not stable")
	}
	p.r.readLat[1]++
	p.finish("w", 1)
	if p.r.digest == before {
		t.Fatal("digest ignores a changed latency")
	}
}

func TestPercentileInterpolatesWithinTick(t *testing.T) {
	// Nine ties at 1000ns and one read at 5000ns.
	ns := []int64{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 5000}
	// Rank 5 of 9 ties: 1000 - 0.5 + 5/9 ns.
	if got, want := percentile(ns, 0.5), (1000-0.5+5.0/9)/1e3; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v µs, want %v", got, want)
	}
	if got := percentile(ns, 0.99); math.Abs(got-(5000-0.5+0.9)/1e3) > 1e-12 {
		t.Errorf("p99 = %v µs", got)
	}
	if got := percentile(ns, 0.5); math.Abs(got-1.0) > 0.0005 {
		t.Errorf("p50 = %v µs, more than half a tick from 1µs", got)
	}
}

func TestBucketTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   repro/internal/fs.fillSyntheticAt
             repro/internal/fs.(*Inode).ReadAt
-----------+-------------------------------------------------------
       sut:  call
      10ms   runtime.memmove
             repro/internal/vfs.(*File).ReadAt
-----------+-------------------------------------------------------
      10ms   sync.(*Mutex).Lock
             repro/internal/pagecache.(*Cache).Insert
-----------+-------------------------------------------------------
`
	shares, err := bucketTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	for pkg, want := range map[string]float64{"fs": 0.6, "runtime": 0.2, "pagecache": 0.2} {
		if math.Abs(shares[pkg]-want) > 1e-9 {
			t.Errorf("%s share %v, want %v (all: %v)", pkg, shares[pkg], want, shares)
		}
	}
}

func TestSpanLayerRejectsUnknownPrefix(t *testing.T) {
	for name, want := range map[string]layer{"lib.read": layerCrosslib, "vfs.copy_out": layerVFS,
		"ring.queue_wait": layerVFS, "cache.tree_walk": layerPagecache, "dev.read": layerBlockdev} {
		if got, err := spanLayer(name); err != nil || got != want {
			t.Errorf("spanLayer(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := spanLayer("tier.promote"); err == nil || !strings.Contains(err.Error(), "tier") {
		t.Errorf("unknown prefix accepted: %v", err)
	}
}
