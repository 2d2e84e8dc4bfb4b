package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func newTestFS(layout Layout) *FS {
	return New(layout, 4096, simtime.DefaultCosts())
}

func TestCreateOpenRemove(t *testing.T) {
	f := newTestFS(LayoutExtent)
	tl := simtime.NewTimeline(0)
	ino, err := f.Create(tl, "a")
	if err != nil {
		t.Fatal(err)
	}
	if ino.Name() != "a" || ino.ID() == 0 {
		t.Fatalf("bad inode %v %v", ino.Name(), ino.ID())
	}
	if _, err := f.Create(tl, "a"); err == nil {
		t.Fatal("duplicate create should fail")
	}
	got, err := f.Open("a")
	if err != nil || got != ino {
		t.Fatalf("open returned %v, %v", got, err)
	}
	if err := f.Remove(tl, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("a"); err == nil {
		t.Fatal("open after remove should fail")
	}
	if err := f.Remove(tl, "a"); err == nil {
		t.Fatal("double remove should fail")
	}
	if tl.Elapsed() == 0 {
		t.Fatal("metadata ops should charge time")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, layout := range []Layout{LayoutExtent, LayoutLog} {
		t.Run(layout.String(), func(t *testing.T) {
			f := newTestFS(layout)
			ino, _ := f.Create(nil, "f")
			data := make([]byte, 10000)
			rand.New(rand.NewSource(1)).Read(data)
			ino.WriteAt(data, 100)
			if ino.Size() != 10100 {
				t.Fatalf("size = %d, want 10100", ino.Size())
			}
			got := make([]byte, 10000)
			if n := ino.ReadAt(got, 100); n != 10000 {
				t.Fatalf("read %d bytes", n)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data mismatch")
			}
		})
	}
}

func TestOverwriteInPlaceVsRemap(t *testing.T) {
	ext := newTestFS(LayoutExtent)
	log := newTestFS(LayoutLog)
	for _, f := range []*FS{ext, log} {
		ino, _ := f.Create(nil, "f")
		buf := bytes.Repeat([]byte{1}, 4096)
		ino.WriteAt(buf, 0)
		ino.WriteAt(bytes.Repeat([]byte{2}, 4096), 0)
		got := make([]byte, 4096)
		ino.ReadAt(got, 0)
		if got[0] != 2 || got[4095] != 2 {
			t.Fatalf("%s: overwrite lost", f.Layout())
		}
	}
	// Extent: the overwrite stayed in place; Log: it moved.
	eIno, _ := ext.Open("f")
	lIno, _ := log.Open("f")
	if eIno.MapRange(0, 1)[0].Phys != 0 {
		t.Fatal("extent overwrite should stay at phys 0")
	}
	if lIno.MapRange(0, 1)[0].Phys == 0 {
		t.Fatal("log overwrite should remap away from phys 0")
	}
}

func TestLogLayoutSequentializesRandomWrites(t *testing.T) {
	f := newTestFS(LayoutLog)
	ino, _ := f.Create(nil, "f")
	buf := make([]byte, 4096)
	// Write blocks in random logical order.
	order := []int64{7, 2, 9, 0, 5}
	for _, blk := range order {
		ino.WriteAt(buf, blk*4096)
	}
	// Physical placement follows write order, not logical order.
	for i, blk := range order {
		runs := ino.MapRange(blk, blk+1)
		if len(runs) != 1 || runs[0].Phys != int64(i) {
			t.Fatalf("block %d mapped to %v, want phys %d", blk, runs, i)
		}
	}
}

func TestExtentContiguity(t *testing.T) {
	f := newTestFS(LayoutExtent)
	ino, _ := f.Create(nil, "f")
	buf := make([]byte, 10*4096)
	ino.WriteAt(buf, 0)
	runs := ino.MapRange(0, 10)
	if len(runs) != 1 || runs[0].Count != 10 {
		t.Fatalf("sequential write should be one run, got %v", runs)
	}
}

func TestMapRangeWithHoles(t *testing.T) {
	f := newTestFS(LayoutExtent)
	ino, _ := f.Create(nil, "f")
	buf := make([]byte, 4096)
	ino.WriteAt(buf, 0)
	ino.WriteAt(buf, 5*4096) // blocks 1-4 are holes
	runs := ino.MapRange(0, 6)
	if len(runs) != 2 {
		t.Fatalf("want 2 runs, got %v", runs)
	}
	if runs[0].Logical != 0 || runs[1].Logical != 5 {
		t.Fatalf("run logicals wrong: %v", runs)
	}
	// Hole reads return zeros.
	got := make([]byte, 4096)
	ino.ReadAt(got, 2*4096)
	for _, b := range got {
		if b != 0 {
			t.Fatal("hole read not zero")
		}
	}
}

func TestSyntheticFile(t *testing.T) {
	f := newTestFS(LayoutExtent)
	ino, err := f.CreateSynthetic(nil, "big", 1<<30) // 1 GB logical
	if err != nil {
		t.Fatal(err)
	}
	if ino.Size() != 1<<30 {
		t.Fatalf("size = %d", ino.Size())
	}
	if ino.Blocks() != (1<<30)/4096 {
		t.Fatalf("blocks = %d", ino.Blocks())
	}
	runs := ino.MapRange(0, ino.Blocks())
	if len(runs) != 1 {
		t.Fatalf("synthetic file should be fully contiguous, got %d runs", len(runs))
	}
	// Reads are deterministic and repeatable.
	a := make([]byte, 8192)
	b := make([]byte, 8192)
	ino.ReadAt(a, 123456)
	ino.ReadAt(b, 123456)
	if !bytes.Equal(a, b) {
		t.Fatal("synthetic reads not deterministic")
	}
	// Writing over synthetic content preserves surrounding filler.
	before := make([]byte, 4096)
	ino.ReadAt(before, 0)
	ino.WriteAt([]byte("hello"), 10)
	after := make([]byte, 4096)
	ino.ReadAt(after, 0)
	if string(after[10:15]) != "hello" {
		t.Fatal("overwrite lost")
	}
	if !bytes.Equal(after[:10], before[:10]) || !bytes.Equal(after[15:], before[15:]) {
		t.Fatal("overwrite clobbered surrounding synthetic content")
	}
}

func TestReadAtEOF(t *testing.T) {
	f := newTestFS(LayoutExtent)
	ino, _ := f.Create(nil, "f")
	ino.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	if n := ino.ReadAt(buf, 0); n != 3 {
		t.Fatalf("read %d, want 3", n)
	}
	if n := ino.ReadAt(buf, 3); n != 0 {
		t.Fatalf("read at EOF = %d, want 0", n)
	}
	if n := ino.ReadAt(buf, 100); n != 0 {
		t.Fatalf("read beyond EOF = %d, want 0", n)
	}
}

func TestTruncate(t *testing.T) {
	f := newTestFS(LayoutExtent)
	ino, _ := f.Create(nil, "f")
	ino.WriteAt(make([]byte, 10*4096), 0)
	ino.Truncate(nil, 4096)
	if ino.Size() != 4096 {
		t.Fatalf("size = %d", ino.Size())
	}
	if runs := ino.MapRange(0, 100); len(runs) != 1 || runs[0].Count != 1 {
		t.Fatalf("mapping after truncate = %v", runs)
	}
}

func TestListAndCount(t *testing.T) {
	f := newTestFS(LayoutExtent)
	for _, n := range []string{"c", "a", "b"} {
		if _, err := f.Create(nil, n); err != nil {
			t.Fatal(err)
		}
	}
	got := f.List()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("List = %v", got)
	}
	if f.FileCount() != 3 {
		t.Fatalf("FileCount = %d", f.FileCount())
	}
}

func TestJournalChargesMore(t *testing.T) {
	ext := newTestFS(LayoutExtent)
	log := newTestFS(LayoutLog)
	tlE := simtime.NewTimeline(0)
	tlL := simtime.NewTimeline(0)
	for i := 0; i < 10; i++ {
		_, _ = ext.Create(tlE, string(rune('a'+i)))
		_, _ = log.Create(tlL, string(rune('a'+i)))
	}
	if tlE.Elapsed() <= tlL.Elapsed() {
		t.Fatalf("ext4 metadata should cost more: ext=%v log=%v", tlE.Elapsed(), tlL.Elapsed())
	}
}

// Property: WriteAt/ReadAt round-trips at arbitrary offsets and lengths
// under both layouts.
func TestWriteReadProperty(t *testing.T) {
	for _, layout := range []Layout{LayoutExtent, LayoutLog} {
		f := newTestFS(layout)
		ino, _ := f.Create(nil, "p")
		check := func(off uint16, size uint8, seed int64) bool {
			data := make([]byte, int(size)+1)
			rand.New(rand.NewSource(seed)).Read(data)
			ino.WriteAt(data, int64(off))
			got := make([]byte, len(data))
			n := ino.ReadAt(got, int64(off))
			return n == len(data) && bytes.Equal(got, data)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
	}
}

// TestConcurrentReadWriteMaterializedBlock overwrites one materialized
// block in place while readers copy it out. Every read must see one
// whole write (all bytes equal), and under -race the copy-out must not
// race the in-place write.
func TestConcurrentReadWriteMaterializedBlock(t *testing.T) {
	f := newTestFS(LayoutExtent)
	ino, _ := f.Create(nil, "f")
	ino.WriteAt(make([]byte, 4096), 0)

	done := make(chan struct{})
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			got := make([]byte, 4096)
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				ino.ReadAt(got, 0)
				for _, b := range got {
					if b != got[0] {
						errs <- fmt.Errorf("torn read: %d then %d", got[0], b)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		ino.WriteAt(bytes.Repeat([]byte{byte(i)}, 4096), 0)
	}
	close(done)
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
