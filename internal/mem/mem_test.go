package mem

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAddressSpaceReadWrite(t *testing.T) {
	as := NewAddressSpace("test", 1<<20)
	data := []byte("direct virtual hardware")
	if err := as.Write(0x1000, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q, want %q", buf, data)
	}
}

func TestAddressSpaceCrossPage(t *testing.T) {
	as := NewAddressSpace("test", 1<<20)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := Addr(PageSize - 100) // straddles 4 pages
	if err := as.Write(start, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(start, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-page round trip corrupted data")
	}
	resident := 0
	for _, leaf := range as.leaves {
		for i := range PFN(leafPages) {
			if len(leaf.extent(i)) != 0 {
				resident++
			}
		}
	}
	if resident != 4 {
		t.Fatalf("resident pages = %d, want 4", resident)
	}
}

func TestAddressSpaceZeroFill(t *testing.T) {
	as := NewAddressSpace("test", 1<<16)
	buf := []byte{1, 2, 3, 4}
	if err := as.Read(0x2000, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory should read zero")
		}
	}
}

func TestAddressSpaceBounds(t *testing.T) {
	as := NewAddressSpace("small", PageSize)
	if err := as.Write(PageSize, []byte{1}); err == nil {
		t.Fatal("write past end should fail")
	}
	if err := as.Read(Addr(PageSize-1), make([]byte, 2)); err == nil {
		t.Fatal("read crossing end should fail")
	}
	if err := as.Write(PageSize-1, []byte{1}); err != nil {
		t.Fatalf("write of the last byte failed: %v", err)
	}
}

func TestWrittenPages(t *testing.T) {
	as := NewAddressSpace("vm", 1<<20)
	as.Write(0, []byte{1})
	as.Write(PageSize*5, []byte{1})
	if err := CopyFrames(as, 9, as, 0, 1); err != nil {
		t.Fatal(err)
	}
	w := as.WrittenPages()
	if len(w) != 3 || w[0] != 0 || w[1] != 5 || w[2] != 9 {
		t.Fatalf("written pages = %v, want [0 5 9]", w)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(200)
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(199)
	b.Set(500) // out of range: ignored
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	if !b.Test(63) || !b.Test(64) || b.Test(65) {
		t.Fatal("Test wrong around word boundary")
	}
	b.Clear(63)
	if b.Test(63) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
	var seen []uint64
	b.ForEach(func(i uint64) { seen = append(seen, i) })
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 64 || seen[2] != 199 {
		t.Fatalf("ForEach order = %v", seen)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestBitmapOr(t *testing.T) {
	a, b := NewBitmap(128), NewBitmap(128)
	a.Set(1)
	b.Set(100)
	a.Or(b)
	if !a.Test(1) || !a.Test(100) {
		t.Fatal("Or missed bits")
	}
}

func TestBitmapCountProperty(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitmap(1 << 16)
		uniq := map[uint16]bool{}
		for _, i := range idxs {
			b.Set(uint64(i))
			uniq[i] = true
		}
		return b.Count() == uint64(len(uniq))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableMapLookup(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0x1234, 0xabcd, PermRW)
	w := pt.Lookup(0x1234, PermRead)
	if !w.Present || w.PFN != 0xabcd {
		t.Fatalf("lookup = %+v", w)
	}
	if w.LevelsTouched != 4 {
		t.Fatalf("full walk touched %d levels, want 4", w.LevelsTouched)
	}
	miss := pt.Lookup(0x9999, PermRead)
	if miss.Present {
		t.Fatal("unmapped frame translated")
	}
	if miss.LevelsTouched < 1 || miss.LevelsTouched > 4 {
		t.Fatalf("miss touched %d levels", miss.LevelsTouched)
	}
}

func TestPageTableMissDepth(t *testing.T) {
	pt := NewPageTable()
	// Frames sharing high-level indices force deeper partial walks.
	pt.Map(0, 1, PermRW)
	w := pt.Lookup(1, PermRead) // same L1..L3 path as frame 0, leaf absent
	if w.Present {
		t.Fatal("frame 1 should be unmapped")
	}
	if w.LevelsTouched != 4 {
		t.Fatalf("adjacent miss touched %d levels, want 4", w.LevelsTouched)
	}
	far := pt.Lookup(PFN(1)<<27, PermRead) // different top-level entry
	if far.LevelsTouched != 1 {
		t.Fatalf("distant miss touched %d levels, want 1", far.LevelsTouched)
	}
}

func TestPageTableUnmap(t *testing.T) {
	pt := NewPageTable()
	pt.Map(5, 10, PermRW)
	if pt.Mapped() != 1 {
		t.Fatal("Mapped != 1")
	}
	if !pt.Unmap(5) {
		t.Fatal("Unmap of mapped frame returned false")
	}
	if pt.Unmap(5) {
		t.Fatal("double Unmap returned true")
	}
	if pt.Mapped() != 0 {
		t.Fatal("Mapped != 0 after unmap")
	}
}

func TestPageTableTranslatePermissions(t *testing.T) {
	pt := NewPageTable()
	pt.Map(1, 2, PermRead)
	if _, err := pt.Translate(PageSize+123, PermRead); err != nil {
		t.Fatalf("read translate failed: %v", err)
	}
	if _, err := pt.Translate(PageSize+123, PermWrite); err == nil {
		t.Fatal("write through read-only mapping should fail")
	}
	a, err := pt.Translate(PageSize+123, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if a != 2*PageSize+123 {
		t.Fatalf("translated to %#x, want %#x", uint64(a), uint64(2*PageSize+123))
	}
}

func TestPageTableRemapOverwrites(t *testing.T) {
	pt := NewPageTable()
	pt.Map(1, 2, PermRW)
	pt.Map(1, 3, PermRead)
	w := pt.Lookup(1, PermRead)
	if w.PFN != 3 || w.Perms != PermRead {
		t.Fatalf("remap not applied: %+v", w)
	}
	if pt.Mapped() != 1 {
		t.Fatalf("Mapped = %d after remap, want 1", pt.Mapped())
	}
}

func TestPageTableForEachOrder(t *testing.T) {
	pt := NewPageTable()
	frames := []PFN{100, 5, 1 << 30, 77}
	for i, f := range frames {
		pt.Map(f, PFN(i), PermRW)
	}
	var got []PFN
	pt.ForEach(func(from, to PFN, p Perm) { got = append(got, from) })
	want := []PFN{5, 77, 100, 1 << 30}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestPageTableClear(t *testing.T) {
	pt := NewPageTable()
	pt.Map(1, 2, PermRW)
	pt.Clear()
	if pt.Mapped() != 0 || pt.Lookup(1, 0).Present {
		t.Fatal("Clear left mappings behind")
	}
}

// An empty table allocates no node, yet walks and iterates exactly like a
// table whose top level is all clear: a miss costs one level.
func TestPageTableEmptyHasNoNodes(t *testing.T) {
	empty, cleared := NewPageTable(), NewPageTable()
	cleared.Map(7, 8, PermRW)
	cleared.Clear()
	for name, pt := range map[string]*PageTable{"new": empty, "cleared": cleared} {
		if pt.root != nil {
			t.Errorf("%s table holds a top-level node", name)
		}
		if w := pt.Lookup(7, PermWrite); w.Present || w.LevelsTouched != 1 {
			t.Errorf("%s table walk = %+v, want a miss touching 1 level", name, w)
		}
		if pt.Unmap(7) {
			t.Errorf("%s table unmapped a frame it never held", name)
		}
		pt.ForEachEntry(func(Entry) { t.Errorf("%s table visited an entry", name) })
		pt.Map(7, 9, PermRW)
		if w := pt.Lookup(7, PermRead); !w.Present || w.PFN != 9 || w.LevelsTouched != 4 {
			t.Errorf("%s table after Map: walk = %+v", name, w)
		}
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw-" {
		t.Fatalf("PermRW = %q", PermRW.String())
	}
	if PermRWX.String() != "rwx" {
		t.Fatalf("PermRWX = %q", PermRWX.String())
	}
	if Perm(0).String() != "---" {
		t.Fatalf("empty perm = %q", Perm(0).String())
	}
}

func TestTranslationChainMovesBytes(t *testing.T) {
	// End-to-end: write through a two-level translation chain and observe the
	// bytes land in host memory — the data path virtual-passthrough DMA uses.
	host := NewAddressSpace("host", 1<<24)
	l1 := NewPageTable() // L1 GPA → host
	l2 := NewPageTable() // L2 GPA → L1 GPA
	l1.Map(100, 200, PermRW)
	l2.Map(50, 100, PermRW)
	l1addr, err := l2.Translate(Addr(50*PageSize+17), PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	hostAddr, err := l1.Translate(l1addr, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("dma payload")
	if err := host.Write(hostAddr, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if err := host.Read(200*PageSize+17, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload did not arrive at translated host address")
	}
}

var (
	tableSink  *PageTable
	bitmapSink *Bitmap
)

// TestFirstTouchAlloc pins what a first touch costs now that directory
// nodes and bitmap chunks start small. A fresh PageTable after one Map holds
// its header, three 96-byte directory nodes and one 4 KiB leaf: 4,416 B. A
// Bitmap over 96 GiB of frames after one Set at frame 0x300011, past 3M,
// where the VCIMT lands in an L1 VM, holds its header, a top-level table
// reaching chunk 96 and one 96-byte chunk: 1,024 B. The budgets are those
// figures. Full nodes and chunks from the first entry cost 18,720 B and
// 5,024 B: a 4 KiB array of pointers carries an 8-byte allocation header,
// which puts it in the 4,864-byte size class. Bytes allocated are
// deterministic, so the budgets hold on any host.
func TestFirstTouchAlloc(t *testing.T) {
	// One P, as testing.AllocsPerRun uses: with two, the runtime may start
	// a thread inside a measured window, about 5 KB of heap of its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 8
	for _, c := range []struct {
		name   string
		budget uint64
		touch  func()
	}{
		{"PageTable after one Map", 4416, func() {
			tableSink = NewPageTable()
			tableSink.Map(0x300011, 5, PermRW)
		}},
		{"Bitmap after one Set at 0x300011", 1024, func() {
			bitmapSink = NewBitmap(96 << 30 >> PageShift)
			bitmapSink.Set(0x300011)
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			c.touch()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > c.budget {
			t.Errorf("%s allocated %d bytes, budget %d", c.name, got, c.budget)
		} else {
			t.Logf("%s allocated %d bytes", c.name, got)
		}
	}
}
