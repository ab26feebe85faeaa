package mem

import (
	"math/bits"
	"slices"
)

// Bitmap chunking: a chunk covers chunkBits bits — 128 MiB of 4 KiB pages —
// in chunkWords words, so a working set of tens of thousands of pages fits
// in one chunk, and even a 480 GiB space needs only a few thousand chunk
// pointers once its highest region is touched.
const (
	chunkShift = 15
	chunkBits  = 1 << chunkShift
	chunkWords = chunkBits / 64 // 512, a smallArray's entries
)

// chunk is a smallArray of words: 96 bytes until its ninth nonzero word
// promotes it to the 4 KiB array. A word Clear zeroes stays listed, and
// Reset empties the list.
type chunk = smallArray[uint64]

// Bitmap is a sparse bit set over [0, Len()) used for dirty-page logs and
// written-page maps. Storage is two-level: a top-level table of chunk
// pointers, grown only as far as the highest chunk ever set, and chunks
// allocated on the first Set inside their range, small until more than a
// few of their words are written. A bitmap costs memory in proportion to
// the words it has touched, not to its capacity, so a machine's nominal
// gigabytes of RAM and disk are free until written, and a lone page costs
// a 96-byte chunk. The zero value is an empty bitmap of capacity zero;
// construct with NewBitmap.
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
	*b.chunk(i >> chunkShift).slot(i >> 6 & (chunkWords - 1)) |= 1 << (i & 63)
}

// SetRange marks bits [lo, lo+n), one word-wide OR per 64 bits: what n
// calls to Set do. Like Set, it ignores bits at or past Len.
func (b *Bitmap) SetRange(lo, n uint64) {
	if lo >= b.n {
		return
	}
	for hi := lo + min(n, b.n-lo); lo < hi; {
		k := min(hi-lo, 64-lo&63)
		*b.chunk(lo >> chunkShift).slot(lo >> 6 & (chunkWords - 1)) |= ^uint64(0) >> (64 - k) << (lo & 63)
		lo += k
	}
}

// chunk returns chunk c, allocating it, and growing the top-level table to
// reach it, on the first write into its 128 MiB region.
func (b *Bitmap) chunk(c uint64) *chunk {
	if c < uint64(len(b.chunks)) && b.chunks[c] != nil {
		return b.chunks[c]
	}
	if c >= uint64(len(b.chunks)) {
		// Grown by hand, not with append(b.chunks, make(...)...): under the
		// race detector that idiom also allocates the appended nils.
		if c >= uint64(cap(b.chunks)) {
			grown := make([]*chunk, len(b.chunks), max(c+1, 2*uint64(cap(b.chunks))))
			copy(grown, b.chunks)
			b.chunks = grown
		}
		b.chunks = b.chunks[:c+1]
	}
	b.chunks[c] = new(chunk)
	return b.chunks[c]
}

// word returns the word holding bit i, or nil when its chunk was never
// materialized or does not list it (every bit in it is clear).
func (b *Bitmap) word(i uint64) *uint64 {
	c := i >> chunkShift
	if i >= b.n || c >= uint64(len(b.chunks)) || b.chunks[c] == nil {
		return nil
	}
	return b.chunks[c].at(i >> 6 & (chunkWords - 1))
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
		if c != nil {
			c.each(func(_, w uint64) { n += uint64(bits.OnesCount64(w)) })
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
		c.each(func(wi, w uint64) {
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				fn(base + wi*64 + uint64(bit))
				w &^= 1 << bit
			}
		})
	}
}

// ForEachRun calls fn for each maximal run of consecutive set bits, as
// frames [p, p+n), in ascending order, and returns the first error fn
// returns, visiting no run after it. fn must not change b. Migration walks
// every page set it sends this way, with no page list.
func (b *Bitmap) ForEachRun(fn func(p PFN, n int) error) error {
	var lo, n uint64 // the run being gathered; n is 0 before the first
	var err error
	for ci, c := range b.chunks {
		if c == nil {
			continue
		}
		base := uint64(ci) << chunkShift
		c.each(func(wi, w uint64) {
			for w != 0 && err == nil {
				s := uint64(bits.TrailingZeros64(w))
				k := uint64(bits.TrailingZeros64(^(w >> s)))
				if at := base + wi*64 + s; n != 0 && lo+n == at {
					n += k
				} else {
					if n != 0 {
						err = fn(PFN(lo), int(n))
					}
					lo, n = at, k
				}
				w &^= (1<<k - 1) << s
			}
		})
		if err != nil {
			return err
		}
	}
	if n == 0 {
		return nil
	}
	return fn(PFN(lo), int(n))
}

// PFNs returns the set bits as page frame numbers in ascending order, in a
// slice allocated once, or nil when no bit is set: the one list view of a
// page set, which snapshots and invariant sweeps read.
func (b *Bitmap) PFNs() []PFN {
	dst := slices.Grow([]PFN(nil), int(b.Count()))
	b.ForEach(func(i uint64) { dst = append(dst, PFN(i)) })
	return dst
}

// Reset clears every bit. Materialized chunks are kept, full ones zeroed
// and small ones emptied, so a log that is drained and re-dirtied in the
// same regions every round allocates nothing after the first.
func (b *Bitmap) Reset() {
	for _, c := range b.chunks {
		if c != nil {
			c.reset()
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
		oc.each(func(wi, w uint64) {
			lo := base + wi*64
			if lo >= b.n {
				return
			}
			if rem := b.n - lo; rem < 64 {
				w &= 1<<rem - 1
			}
			if w != 0 {
				*b.chunk(uint64(ci)).slot(wi) |= w
			}
		})
	}
}
