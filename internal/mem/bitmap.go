package mem

import "math/bits"

// Bitmap chunking: a chunk is 4 KiB of words covering chunkBits bits — 128
// MiB of 4 KiB pages — so a working set of tens of thousands of pages fits
// in one chunk, and even a 480 GiB space needs only a few thousand chunk
// pointers once its highest region is touched.
const (
	chunkShift = 15
	chunkBits  = 1 << chunkShift
	chunkWords = chunkBits / 64
)

type chunk [chunkWords]uint64

// Bitmap is a sparse bit set over [0, Len()) used for dirty-page logs and
// written-page maps. Storage is two-level: a top-level table of chunk
// pointers, grown only as far as the highest chunk ever set, and chunks
// allocated on the first Set inside their range. A bitmap costs memory in
// proportion to the regions it has touched, not to its capacity, so a
// machine's nominal gigabytes of RAM and disk are free until written. The
// zero value is an empty bitmap of capacity zero; construct with NewBitmap.
type Bitmap struct {
	n      uint64
	chunks []*chunk // chunks[c] holds bits [c*chunkBits, (c+1)*chunkBits); nil = all clear
}

// NewBitmap returns a bitmap holding n bits, all clear. It allocates no
// bit storage.
func NewBitmap(n uint64) *Bitmap {
	return &Bitmap{n: n}
}

// Len returns the bitmap's capacity in bits.
func (b *Bitmap) Len() uint64 { return b.n }

// Set marks bit i. Out-of-range indexes are ignored so callers logging
// against a resized space fail soft.
func (b *Bitmap) Set(i uint64) {
	if i >= b.n {
		return
	}
	c := i >> chunkShift
	if c >= uint64(len(b.chunks)) || b.chunks[c] == nil {
		b.materialize(c)
	}
	b.chunks[c][i>>6&(chunkWords-1)] |= 1 << (i & 63)
}

// materialize allocates chunk c, growing the top-level table to reach it.
// It runs once per chunk: the first write into a 128 MiB region.
func (b *Bitmap) materialize(c uint64) {
	if c >= uint64(len(b.chunks)) {
		b.chunks = append(b.chunks, make([]*chunk, c+1-uint64(len(b.chunks)))...)
	}
	if b.chunks[c] == nil {
		b.chunks[c] = new(chunk)
	}
}

// word returns the word holding bit i, or nil when its chunk was never
// materialized (every bit in it is clear).
func (b *Bitmap) word(i uint64) *uint64 {
	c := i >> chunkShift
	if i >= b.n || c >= uint64(len(b.chunks)) || b.chunks[c] == nil {
		return nil
	}
	return &b.chunks[c][i>>6&(chunkWords-1)]
}

// Clear unmarks bit i.
func (b *Bitmap) Clear(i uint64) {
	if w := b.word(i); w != nil {
		*w &^= 1 << (i & 63)
	}
}

// Test reports whether bit i is set.
func (b *Bitmap) Test(i uint64) bool {
	w := b.word(i)
	return w != nil && *w&(1<<(i&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() uint64 {
	var n uint64
	for _, c := range b.chunks {
		if c == nil {
			continue
		}
		for _, w := range c {
			n += uint64(bits.OnesCount64(w))
		}
	}
	return n
}

// ForEach calls fn for every set bit, in ascending order.
func (b *Bitmap) ForEach(fn func(i uint64)) {
	for ci, c := range b.chunks {
		if c == nil {
			continue
		}
		base := uint64(ci) << chunkShift
		for wi, w := range c {
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				fn(base + uint64(wi)*64 + uint64(bit))
				w &^= 1 << bit
			}
		}
	}
}

// PFNs returns the set bits as page frame numbers in ascending order, in one
// exactly sized slice, or nil when no bit is set. Dirty logs and written
// sets hand their pages to migration and snapshots this way.
func (b *Bitmap) PFNs() []PFN {
	n := b.Count()
	if n == 0 {
		return nil
	}
	out := make([]PFN, 0, n)
	b.ForEach(func(i uint64) { out = append(out, PFN(i)) })
	return out
}

// Reset clears every bit. Materialized chunks are kept and zeroed, so a log
// that is drained and re-dirtied in the same regions every round allocates
// nothing after the first.
func (b *Bitmap) Reset() {
	for _, c := range b.chunks {
		if c != nil {
			*c = chunk{}
		}
	}
}

// Or merges other into b: every bit set in other and inside b's capacity
// becomes set in b.
func (b *Bitmap) Or(other *Bitmap) {
	for ci, oc := range other.chunks {
		if oc == nil {
			continue
		}
		base := uint64(ci) << chunkShift
		if base >= b.n {
			return
		}
		var c *chunk
		for wi, w := range oc {
			lo := base + uint64(wi)*64
			if lo >= b.n {
				break
			}
			if rem := b.n - lo; rem < 64 {
				w &= 1<<rem - 1
			}
			if w == 0 {
				continue
			}
			if c == nil {
				b.materialize(uint64(ci))
				c = b.chunks[ci]
			}
			c[wi] |= w
		}
	}
}
