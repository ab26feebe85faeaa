// Package mem models guest-physical memory and the translation structures
// the virtualization stack is built on: sparse byte-addressable address
// spaces that track written pages, bitmaps, and real 4-level page tables used
// both as EPTs (CPU side) and as IOMMU translation tables (DMA side).
//
// Bytes really move: virtio rings, DMA buffers and migration all read and
// write AddressSpace content, so a mapping bug shows up as corrupted data in
// tests, not as a silently wrong cycle count.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Addr is a byte address within some (guest- or host-) physical address space.
type Addr uint64

// PFN is a page frame number: Addr >> PageShift.
type PFN uint64

const (
	// PageShift and PageSize fix 4 KiB pages, the granularity of EPT
	// mappings, dirty logging and migration transfer in the model.
	PageShift = 12
	PageSize  = 1 << PageShift
)

// PageOf returns the frame containing the address.
func PageOf(a Addr) PFN { return PFN(a >> PageShift) }

// Base returns the first address of the frame.
func (p PFN) Base() Addr { return Addr(p) << PageShift }

// AddressSpace is a sparse, byte-addressable physical address space backed by
// on-demand frames. A frame stores only its extent, the bytes up to the
// highest one ever written; the rest of the page reads as zero. Its written
// set is a sparse bitmap, so host cost follows the pages and
// bytes a run touches, never the nominal size. It serves as host physical
// memory for the machine and as guest-physical memory for every VM level.
//
// Like a PageTable, an AddressSpace is not safe for concurrent use, even by
// readers only: Read updates the last-leaf cache.
type AddressSpace struct {
	name   string
	npages PFN
	// leaves holds each materialized page's extent, in leaves of leafPages
	// frames keyed by p >> leafShift.
	leaves map[PFN]*frameLeaf
	// last caches leaves[lastKey], nil when that leaf is absent (the zero
	// pair fits an empty space), so a sequential scan hashes once per leaf.
	// Leaves are never removed, and resize updates it when it adds one.
	last    *frameLeaf
	lastKey PFN
	written *Bitmap // every page ever written; migration's first pass sends these
}

// leafShift sets a frame leaf's span: leafPages consecutive frames.
const (
	leafShift = 6
	leafPages = 1 << leafShift
)

// frameLeaf holds the extents of leafPages consecutive frames, allocated on
// the first write into its range. Leaves are keyed by a map, not indexed by
// a table sized to the highest frame written, so a lone page high in a large
// space costs one leaf.
//
// An extent of at most minFrame bytes lives inline, in quads with its length
// in lens, so a leaf of quadword pages is one 584-byte object with a single
// pointer. A longer extent lives in long, a table the leaf's first long
// extent allocates; from then on the page stays there, whatever its length,
// and its inline slot is dead. A long extent's capacity is a size class
// (frameCap). In both forms the bytes between length and capacity may be
// stale, and resize clears them before exposing them.
type frameLeaf struct {
	quads [leafPages][minFrame]byte
	lens  [leafPages]uint8
	long  *[leafPages][]byte
}

// minFrame is the smallest frame size class and the inline capacity: one
// quadword, the unit virtio descriptors and migration's churn write.
const minFrame = 8

// extent returns page i's extent: its long one if it has one, else its
// inline quadword, empty for a page never written.
func (l *frameLeaf) extent(i PFN) []byte {
	if l.long != nil && l.long[i] != nil {
		return l.long[i]
	}
	return l.quads[i][:l.lens[i]]
}

// frameCap rounds an extent of n bytes up to its size class: the next power
// of two, at least minFrame and at most PageSize. Power-of-two classes are
// Go allocator size classes too, so a frame wastes no capacity, and a page
// filled a byte at a time regrows only log2(PageSize/minFrame) times.
func frameCap(n int) int {
	return max(minFrame, 1<<bits.Len(uint(n-1)))
}

// NewAddressSpace creates an address space of the given byte size (rounded up
// to whole pages). The name appears in errors and reports.
func NewAddressSpace(name string, size uint64) *AddressSpace {
	np := PFN((size + PageSize - 1) / PageSize)
	return &AddressSpace{
		name:    name,
		npages:  np,
		leaves:  make(map[PFN]*frameLeaf),
		written: NewBitmap(uint64(np)),
	}
}

// NumPages returns the number of page frames in the space.
func (as *AddressSpace) NumPages() PFN { return as.npages }

// frame returns page p's extent, empty for a page never written. It never
// allocates; a hash lookup happens only when p's leaf is not the cached one.
func (as *AddressSpace) frame(p PFN) ([]byte, error) {
	if p >= as.npages {
		return nil, as.beyond(p)
	}
	return as.leaf(p >> leafShift).extentOrNil(p & (leafPages - 1)), nil
}

func (as *AddressSpace) beyond(p PFN) error {
	return fmt.Errorf("mem: %s: page %#x beyond end (%#x pages)", as.name, uint64(p), uint64(as.npages))
}

// leaf returns the frame leaf with key k, nil when absent, through the
// last-leaf cache.
func (as *AddressSpace) leaf(k PFN) *frameLeaf {
	if k != as.lastKey {
		as.last, as.lastKey = as.leaves[k], k
	}
	return as.last
}

// newLeaf materializes the absent leaf with key k and caches it.
func (as *AddressSpace) newLeaf(k PFN) *frameLeaf {
	l := new(frameLeaf)
	as.leaves[k], as.last, as.lastKey = l, l, k
	return l
}

// leafRun returns how many frames from p, at most n, lie in p's leaf.
func leafRun(p PFN, n int) int {
	return min(n, leafPages-int(p&(leafPages-1)))
}

// resize sets page p's extent to n bytes and returns it (frameLeaf.resize).
// It materializes p's leaf on the first write into its range, but not for n
// of 0. Only the write paths call it; reads never allocate.
func (as *AddressSpace) resize(p PFN, n int) []byte {
	l := as.leaf(p >> leafShift)
	if l == nil {
		if n == 0 {
			return nil
		}
		l = as.newLeaf(p >> leafShift)
	}
	return l.resize(p&(leafPages-1), n)
}

// resize sets page i's extent to n bytes and returns it. The extent keeps
// its first bytes, and the bytes it exposes past its old length read as
// zero: a new allocation comes zeroed, and a reslice within capacity clears
// the stale tail a shrinking CopyFrames left behind.
func (l *frameLeaf) resize(i PFN, n int) []byte {
	f := l.extent(i)
	if n > cap(f) {
		if l.long == nil {
			l.long = new([leafPages][]byte)
		}
		l.long[i] = make([]byte, n, frameCap(n))
		copy(l.long[i], f)
		return l.long[i]
	}
	g := f[:n]
	if n > len(f) {
		clear(g[len(f):])
	}
	if l.long != nil && l.long[i] != nil {
		l.long[i] = g
	} else {
		l.lens[i] = uint8(n)
	}
	return g
}

// mark records page p written.
func (as *AddressSpace) mark(p PFN) {
	as.written.Set(uint64(p))
}

// Read copies len(buf) bytes starting at a into buf. Unwritten memory reads
// as zero. It fails if the range escapes the space.
func (as *AddressSpace) Read(a Addr, buf []byte) error {
	for len(buf) > 0 {
		off := int(a & (PageSize - 1))
		n := min(PageSize-off, len(buf))
		f, err := as.frame(PageOf(a))
		if err != nil {
			return err
		}
		k := 0
		if off < len(f) {
			k = copy(buf[:n], f[off:])
		}
		clear(buf[k:n])
		buf = buf[n:]
		a += Addr(n)
	}
	return nil
}

// Write copies buf into the space starting at a, marking touched pages
// written.
func (as *AddressSpace) Write(a Addr, buf []byte) error {
	for len(buf) > 0 {
		p := PageOf(a)
		off := int(a & (PageSize - 1))
		n := min(PageSize-off, len(buf))
		f, err := as.frame(p)
		if err != nil {
			return err
		}
		if off+n > len(f) {
			f = as.resize(p, off+n)
		}
		copy(f[off:], buf[:n])
		as.mark(p)
		buf = buf[n:]
		a += Addr(n)
	}
	return nil
}

// CopyFrames overwrites frames [dp, dp+n) of dst with frames [sp, sp+n) of
// src in ascending order and marks them written, leaving both spaces exactly
// as reading each source page and writing it whole to its destination page
// would. It moves only the source extents, so a page holding one quadword
// costs a quadword, and it resolves each frame leaf once per run of frames
// inside it. Shrinking keeps a destination extent's capacity; resize clears
// it before reuse. A frame past either end fails the copy there, the
// source's end checked first, after the frames before it moved.
func CopyFrames(dst *AddressSpace, dp PFN, src *AddressSpace, sp PFN, n int) error {
	for n > 0 {
		if sp >= src.npages {
			return src.beyond(sp)
		}
		if dp >= dst.npages {
			return dst.beyond(dp)
		}
		k := int(min(PFN(leafRun(dp, leafRun(sp, n))), src.npages-sp, dst.npages-dp))
		sl, dl := src.leaf(sp>>leafShift), dst.leaf(dp>>leafShift)
		for i := range PFN(k) {
			sf := sl.extentOrNil(sp&(leafPages-1) + i)
			if dl == nil {
				if len(sf) == 0 {
					continue
				}
				dl = dst.newLeaf(dp >> leafShift)
			}
			copy(dl.resize(dp&(leafPages-1)+i, len(sf)), sf)
		}
		dst.written.SetRange(uint64(dp), uint64(k))
		sp, dp, n = sp+PFN(k), dp+PFN(k), n-k
	}
	return nil
}

// EqualFrames compares frames [p, p+n) of a with frames [q, q+n) of b, pair
// by pair, and returns how many leading pairs hold the same bytes: n when
// all do, else the index of the first pair that differs. It compares
// extents: past the shorter one, the longer must be zero. It resolves each
// frame leaf once per run of frames inside it. A frame past either end is
// an error, a's end checked first, returned with its index once every pair
// before it compared equal.
func EqualFrames(a *AddressSpace, p PFN, b *AddressSpace, q PFN, n int) (int, error) {
	for done := 0; done < n; {
		if p >= a.npages {
			return done, a.beyond(p)
		}
		if q >= b.npages {
			return done, b.beyond(q)
		}
		k := int(min(PFN(leafRun(q, leafRun(p, n-done))), a.npages-p, b.npages-q))
		la, lb := a.leaf(p>>leafShift), b.leaf(q>>leafShift)
		for i := range PFN(k) {
			if !sameBytes(la.extentOrNil(p&(leafPages-1)+i), lb.extentOrNil(q&(leafPages-1)+i)) {
				return done + int(i), nil
			}
		}
		p, q, done = p+PFN(k), q+PFN(k), done+k
	}
	return n, nil
}

// sameBytes reports whether two extents hold the same page: past the shorter
// one, the longer must be zero.
func sameBytes(fa, fb []byte) bool {
	if len(fa) < len(fb) {
		fa, fb = fb, fa
	}
	if !bytes.Equal(fa[:len(fb)], fb) {
		return false
	}
	for _, c := range fa[len(fb):] {
		if c != 0 {
			return false
		}
	}
	return true
}

// extentOrNil is extent on a leaf that may be absent: a page never written.
func (l *frameLeaf) extentOrNil(i PFN) []byte {
	if l == nil {
		return nil
	}
	return l.extent(i)
}

// WriteQuads writes val(i), little-endian, over the first 8 bytes of frame
// p+i for each i in [0, n), in ascending order, and marks the frames
// written, leaving the space exactly as n 8-byte Writes at those frame
// bases would. It resolves each frame leaf once per run of frames inside
// it. A frame past the end fails the write there, after the frames before
// it were written.
func (as *AddressSpace) WriteQuads(p PFN, n int, val func(i int) uint64) error {
	for done := 0; done < n; {
		if p >= as.npages {
			return as.beyond(p)
		}
		k := int(min(PFN(leafRun(p, n-done)), as.npages-p))
		l := as.leaf(p >> leafShift)
		if l == nil {
			l = as.newLeaf(p >> leafShift)
		}
		for i := range PFN(k) {
			j := p&(leafPages-1) + i
			f := l.extent(j)
			if len(f) < minFrame {
				f = l.resize(j, minFrame)
			}
			binary.LittleEndian.PutUint64(f, val(done+int(i)))
		}
		as.written.SetRange(uint64(p), uint64(k))
		p, done = p+PFN(k), done+k
	}
	return nil
}

// WrittenPages returns every frame ever written, in ascending order: the
// working set migration's first pass must ship.
func (as *AddressSpace) WrittenPages() []PFN { return as.written.PFNs() }
