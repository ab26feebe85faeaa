package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// refSpace is FuzzAddressSpace's reference model: an address space whose
// pages are full [PageSize]byte frames. Read and write walk the range page
// by page like AddressSpace, so a range that runs off the end fails after
// its in-range pages moved.
type refSpace struct {
	npages PFN
	frames map[PFN]*[PageSize]byte
}

func newRefSpace(npages PFN) *refSpace {
	return &refSpace{npages: npages, frames: map[PFN]*[PageSize]byte{}}
}

func (r *refSpace) frame(p PFN) *[PageSize]byte {
	if r.frames[p] == nil {
		r.frames[p] = new([PageSize]byte)
	}
	return r.frames[p]
}

func (r *refSpace) write(a Addr, buf []byte) bool {
	for len(buf) > 0 {
		if PageOf(a) >= r.npages {
			return false
		}
		n := copy(r.frame(PageOf(a))[a%PageSize:], buf)
		buf, a = buf[n:], a+Addr(n)
	}
	return true
}

func (r *refSpace) read(a Addr, buf []byte) bool {
	for len(buf) > 0 {
		if PageOf(a) >= r.npages {
			return false
		}
		n := copy(buf, r.frame(PageOf(a))[a%PageSize:])
		buf, a = buf[n:], a+Addr(n)
	}
	return true
}

// Address-space fuzz steps are asStepLen-byte records: an opcode, a space
// selector (bit 0 picks the acted-on space; bit 1 makes the other operand
// the other space instead of the same one; bits 2-7 pick the 16-page window
// a byte address x lies in), two little-endian 16-bit operands x and y, and
// a value byte v. A run step (CopyFrames, EqualFrames, WriteQuads) spans
// 1+v frames.
const (
	asOpWrite = iota
	asOpRead
	asOpCopyFrames
	asOpEqualFrames
	asOpWriteQuads
	asNumOps

	asStepLen = 7
)

func asStep(op, sel byte, x, y uint16, v byte) []byte {
	return []byte{op, sel, byte(x), byte(x >> 8), byte(y), byte(y >> 8), v}
}

// FuzzAddressSpace checks byte-extent frames against the full-frame
// reference over two spaces: writes and reads at any offset and length
// (across pages and off the end), and runs of up to 256 frames: CopyFrames
// in both directions and within one space, overlapping runs included,
// EqualFrames and WriteQuads, each against the reference applied one frame
// at a time. The second space spans three frame leaves, the last one partly,
// so steps cross leaf boundaries and alternate between leaves. Extents cross
// the 8-byte boundary between the inline and the long form in both
// directions. Every read, EqualFrames answer and run error (the first frame
// past an end, the source's first) must match the model, as must every byte
// at the end.
func FuzzAddressSpace(f *testing.F) {
	// The stale tail: a full frame shrunk by copying an 8-byte frame over
	// it keeps its capacity; growing it again by one byte at offset 100
	// must expose zeros at 8..99, not the old contents.
	f.Add(bytes.Join([][]byte{
		asStep(asOpWrite, 0, 0, PageSize, 1),
		asStep(asOpWrite, 1, 0, 8, 3),
		asStep(asOpCopyFrames, 2, 0, 0, 0),
		asStep(asOpWrite, 0, 100, 1, 5),
		asStep(asOpRead, 0, 0, PageSize, 0),
	}, nil))
	// Cross-page and off-the-end writes, copies both ways and within a
	// space, and frames equal only if a longer extent's tail is zero.
	f.Add(bytes.Join([][]byte{
		asStep(asOpWrite, 0, PageSize-4, 20, 7),
		asStep(asOpWrite, 1, 3*PageSize+9, 8, 9),
		asStep(asOpCopyFrames, 3, 3, 0, 0),
		asStep(asOpEqualFrames, 2, 0, 3, 0),
		asStep(asOpEqualFrames, 2, 1, 0, 0),
		asStep(asOpCopyFrames, 0, 2, 0, 0),
		asStep(asOpWrite, 0, 4*PageSize-2, 8, 2),
	}, nil))
	// Writes and reads alternating between the same slot of the first and
	// third leaf, where a cached leaf used under the wrong key mixes the two
	// pages up, then a read across the first leaf boundary and a copy and
	// compare between leaves.
	const win8, win4, win3 = 8 << 2, 4 << 2, 3 << 2 // windows from pages 128, 64 and 48
	f.Add(bytes.Join([][]byte{
		asStep(asOpWrite, 1, PageSize+8, 16, 3),
		asStep(asOpWrite, 1|win8, PageSize+8, 16, 5),
		asStep(asOpRead, 1, PageSize, 64, 0),
		asStep(asOpWrite, 1, PageSize+12, 8, 7),
		asStep(asOpRead, 1|win8, PageSize, 64, 0),
		asStep(asOpWrite, 1|win4, 0, 8, 9),
		asStep(asOpRead, 1|win3, 16*PageSize-16, 32, 0),
		asStep(asOpCopyFrames, 1, 129, 1, 0),
		asStep(asOpEqualFrames, 1, 1, 129, 0),
		asStep(asOpRead, 1|win8, PageSize, 64, 0),
	}, nil))
	// An extent that grows from 8 to 9 bytes moves from its inline slot to
	// the leaf's long table and must keep its first 8 bytes, then a long
	// extent shrinks to a quadword and regrows. Space a's one leaf ends up
	// holding both forms: pages 0 and 1 long, pages 2 and 3 inline.
	f.Add(bytes.Join([][]byte{
		asStep(asOpWrite, 0, PageSize, 8, 3),
		asStep(asOpWrite, 0, PageSize+8, 1, 5),
		asStep(asOpRead, 0, PageSize, 16, 0),
		asStep(asOpWrite, 0, 2*PageSize+2, 3, 7),
		asStep(asOpCopyFrames, 0, 0, 1, 0),
		asStep(asOpRead, 0, PageSize-4, 32, 0),
		asStep(asOpWrite, 0, 3*PageSize, 8, 9),
		asStep(asOpEqualFrames, 0, 3, 1, 0),
		asStep(asOpCopyFrames, 0, 1, 3, 0),
		asStep(asOpRead, 0, PageSize, 16, 0),
		asStep(asOpWrite, 0, PageSize+12, 1, 11),
		asStep(asOpRead, 0, PageSize, 16, 0),
		asStep(asOpEqualFrames, 0, 1, 3, 0),
	}, nil))
	// The stale tail in both forms, down to an empty extent: a long extent
	// and an inline one each shrunk by copying a shorter frame over it,
	// then read and regrown within capacity, and a long extent emptied by
	// an absent frame, then written past its old length.
	f.Add(bytes.Join([][]byte{
		asStep(asOpWrite, 0, 0, 100, 1),
		asStep(asOpWrite, 1, 0, 5, 3),
		asStep(asOpCopyFrames, 2, 0, 0, 0),
		asStep(asOpRead, 0, 0, 16, 0),
		asStep(asOpWrite, 0, 12, 1, 9),
		asStep(asOpRead, 0, 0, 128, 0),
		asStep(asOpWrite, 0, 2*PageSize, 8, 5),
		asStep(asOpCopyFrames, 2, 2, 0, 0),
		asStep(asOpWrite, 0, 2*PageSize+7, 1, 2),
		asStep(asOpRead, 0, 2*PageSize, 8, 0),
		asStep(asOpCopyFrames, 2, 0, 7, 0),
		asStep(asOpRead, 0, 0, 16, 0),
		asStep(asOpWrite, 0, 50, 1, 4),
		asStep(asOpRead, 0, 0, 64, 0),
	}, nil))
	// Runs: a copy from a's last frames into b's first leaf that runs off
	// a's end, a copy across both of b's leaf boundaries that runs off b's
	// end, an overlapping copy within b, quadword runs over absent, inline
	// and long extents, and compares that stop at a difference, at the end
	// of a, and after a whole run of equal frames.
	f.Add(bytes.Join([][]byte{
		asStep(asOpWrite, 0, 2*PageSize, PageSize+16, 3),
		asStep(asOpWriteQuads, 1, 60, 0x1234, 9),
		asStep(asOpCopyFrames, 3, 62, 2, 5),
		asStep(asOpEqualFrames, 3, 62, 2, 3),
		asStep(asOpCopyFrames, 1, 50, 0, 100),
		asStep(asOpCopyFrames, 1, 3, 1, 40),
		asStep(asOpWriteQuads, 0, 1, 7, 2),
		asStep(asOpEqualFrames, 1, 60, 62, 20),
		asStep(asOpEqualFrames, 3, 0, 0, 255),
		asStep(asOpEqualFrames, 1, 80, 80, 30),
		asStep(asOpRead, 1|8<<2, 0, 2*PageSize, 0),
	}, nil))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const bPages = 2*leafPages + 5
		spaces := [2]*AddressSpace{NewAddressSpace("a", 4*PageSize), NewAddressSpace("b", bPages*PageSize)}
		refs := [2]*refSpace{newRefSpace(4), newRefSpace(bPages)}
		for step := 0; len(ops) >= asStepLen; step++ {
			op, sel, v := ops[0]%asNumOps, ops[1], ops[6]
			x, y := binary.LittleEndian.Uint16(ops[2:]), binary.LittleEndian.Uint16(ops[4:])
			ops = ops[asStepLen:]
			i := int(sel & 1)
			j := i ^ int(sel>>1&1)
			as, ref := spaces[i], refs[i]
			// Addresses and frames reach one page past the end, lengths two
			// pages, so bounds failures are exercised too.
			a := Addr((uint32(sel>>2)<<16 | uint32(x)) % uint32((ref.npages+1)*PageSize))
			n := int(y) % (2*PageSize + 1)
			p, q := PFN(x)%(ref.npages+1), PFN(y)%(refs[j].npages+1)
			run := 1 + int(v) // frames in a run step
			switch op {
			case asOpWrite:
				buf := make([]byte, n)
				for k := range buf {
					buf[k] = byte(k+1) * v
				}
				if err := as.Write(a, buf); (err == nil) != ref.write(a, buf) {
					t.Fatalf("step %d: Write(%s, %#x, %d) error %v disagrees with the reference", step, as.name, a, n, err)
				}
			case asOpRead:
				got, want := make([]byte, n), make([]byte, n)
				err := as.Read(a, got)
				ok := ref.read(a, want)
				if (err == nil) != ok {
					t.Fatalf("step %d: Read(%s, %#x, %d) error %v disagrees with the reference", step, as.name, a, n, err)
				}
				if ok && !bytes.Equal(got, want) {
					t.Fatalf("step %d: Read(%s, %#x, %d) differs from the reference", step, as.name, a, n)
				}
			case asOpCopyFrames:
				// The reference copies frame by frame, in ascending order, up
				// to the first frame past either end, the source's first.
				var want error
				for k := range PFN(run) {
					if q+k >= refs[j].npages {
						want = spaces[j].beyond(q + k)
						break
					}
					if p+k >= ref.npages {
						want = as.beyond(p + k)
						break
					}
					*ref.frame(p + k) = *refs[j].frame(q + k)
				}
				if err := CopyFrames(as, p, spaces[j], q, run); fmt.Sprint(err) != fmt.Sprint(want) {
					t.Fatalf("step %d: CopyFrames(%s:%d <- %s:%d, %d) error %v, reference %v", step, as.name, p, spaces[j].name, q, run, err, want)
				}
			case asOpEqualFrames:
				wantN, want := run, error(nil)
				for k := range PFN(run) {
					if p+k >= ref.npages {
						wantN, want = int(k), as.beyond(p+k)
						break
					}
					if q+k >= refs[j].npages {
						wantN, want = int(k), spaces[j].beyond(q+k)
						break
					}
					if *ref.frame(p + k) != *refs[j].frame(q + k) {
						wantN = int(k)
						break
					}
				}
				if got, err := EqualFrames(as, p, spaces[j], q, run); got != wantN || fmt.Sprint(err) != fmt.Sprint(want) {
					t.Fatalf("step %d: EqualFrames(%s:%d, %s:%d, %d) = %d, %v; reference %d, %v", step, as.name, p, spaces[j].name, q, run, got, err, wantN, want)
				}
			case asOpWriteQuads:
				val := func(k int) uint64 { return uint64(y)<<32 | uint64(k)*0x0101 + 1 }
				var want error
				for k := range PFN(run) {
					if p+k >= ref.npages {
						want = as.beyond(p + k)
						break
					}
					binary.LittleEndian.PutUint64(ref.frame(p + k)[:8], val(int(k)))
				}
				if err := as.WriteQuads(p, run, val); fmt.Sprint(err) != fmt.Sprint(want) {
					t.Fatalf("step %d: WriteQuads(%s:%d, %d) error %v, reference %v", step, as.name, p, run, err, want)
				}
			}
		}
		for k := range spaces {
			got, want := make([]byte, refs[k].npages*PageSize), make([]byte, refs[k].npages*PageSize)
			if err := spaces[k].Read(0, got); err != nil || !refs[k].read(0, want) {
				t.Fatalf("reading all of %s: %v", spaces[k].name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s content differs from the reference at the end", spaces[k].name)
			}
		}
	})
}

// TestAddressSpaceSparseAlloc pins the cost of a first write to the regions
// it touches, not to how far into the space it lands: one 8-byte write into a
// fresh 96 GiB space, at its first frame, at frame 0x300011 (12 GiB in,
// where an L2 DVH stack's only written host page lies) and at its last
// frame, must each allocate at most 16 KiB, construction included. An index
// sized to the highest frame written, such as a flat table over frame
// leaves, costs ~60 KB at 0x300011. Bytes allocated are deterministic, so
// the budget holds on any host.
func TestAddressSpaceSparseAlloc(t *testing.T) {
	const size, budget = 96 << 30, 16 << 10
	val := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	for _, p := range []PFN{0, 0x300011, size/PageSize - 1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		as := NewAddressSpace("host", size)
		if err := as.Write(p.Base(), val); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("a write at frame %#x allocated %d bytes, budget %d", p, got, budget)
		} else {
			t.Logf("a write at frame %#x allocated %d bytes", p, got)
		}
	}
}

// TestQuadwordPagesAllocFree pins the layouts that keep a page from costing
// its own heap object: once a frame leaf or a level-4 page-table leaf exists,
// a quadword Write to an unwritten page of that frame leaf, a CopyFrames of a
// quadword page onto an absent page of it, and Map and Lookup within that
// page-table leaf each allocate nothing. A leaf of per-page slices costs
// one allocation for each of the first two.
func TestQuadwordPagesAllocFree(t *testing.T) {
	const runs = leafPages/3 - 1 // AllocsPerRun calls each case runs+1 times
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	dst, src := NewAddressSpace("dst", 1<<20), NewAddressSpace("src", 1<<20)
	for _, err := range []error{dst.Write(0, val), src.Write(0, val)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	pt := NewPageTable()
	pt.Map(0, 100, PermRW)
	next := PFN(1)
	for _, c := range []struct {
		name string
		fn   func(p PFN) error
	}{
		{"a quadword Write to an unwritten page", func(p PFN) error { return dst.Write(p.Base(), val) }},
		{"CopyFrames of a quadword page onto an absent page", func(p PFN) error { return CopyFrames(dst, p, src, 0, 1) }},
		{"PageTable.Map and Lookup", func(p PFN) error {
			pt.Map(p, p+100, PermRW)
			if w := pt.Lookup(p); w.PFN != p+100 {
				t.Errorf("Lookup(%d) = %+v", p, w)
			}
			return nil
		}},
	} {
		if n := testing.AllocsPerRun(runs, func() {
			if err := c.fn(next); err != nil {
				t.Fatal(err)
			}
			next++
		}); n != 0 {
			t.Errorf("%s allocated %v times per call, want 0", c.name, n)
		}
	}
	if next > leafPages {
		t.Fatalf("the calls reached page %d; every page must lie in leaf 0", next-1)
	}
	got := make([]byte, minFrame)
	for p := PFN(1); p < 1+2*(runs+1); p++ {
		if err := dst.Read(p.Base(), got); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("page %d reads %v, %v; want %v", p, got, err, val)
		}
	}
}
