package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"testing"
)

// ssdPages is the frame count of the machine's 480 GiB SSD backing, the
// largest space the simulator models.
const ssdPages = 480 << 30 >> PageShift

// TestBitmapSparseStorage pins the point of the two-level layout: capacity
// is free, and storage follows the regions actually set.
func TestBitmapSparseStorage(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { NewBitmap(ssdPages) }); n > 1 {
		t.Fatalf("NewBitmap(480 GiB of frames) made %v allocations, want at most 1 (the header)", n)
	}
	b := NewBitmap(ssdPages)
	last := uint64(ssdPages - 1)
	b.Set(last)
	b.Set(3)
	if got := len(b.chunks); got != int(last>>chunkShift)+1 {
		t.Fatalf("top-level table has %d slots, want %d", got, last>>chunkShift+1)
	}
	materialized := 0
	for _, c := range b.chunks {
		if c != nil {
			materialized++
		}
	}
	if materialized != 2 {
		t.Fatalf("%d chunks materialized for two far-apart bits, want 2", materialized)
	}
	if !b.Test(last) || !b.Test(3) || b.Test(4) || b.Count() != 2 {
		t.Fatal("sparse bits lost")
	}
	if got := b.PFNs(); len(got) != 2 || got[0] != 3 || got[1] != PFN(last) {
		t.Fatalf("PFNs = %v, want [3 %d]", got, last)
	}
}

// TestBitmapResetReusesChunks checks that draining a log and re-dirtying the
// same region — one pre-copy round after another — allocates nothing.
func TestBitmapResetReusesChunks(t *testing.T) {
	b := NewBitmap(1 << 20)
	for i := uint64(0); i < 4096; i += 7 {
		b.Set(i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		for i := uint64(0); i < 4096; i += 7 {
			b.Set(i)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+Set in a materialized region allocated %v times per round, want 0", allocs)
	}
	b.Reset()
	if b.Count() != 0 || b.PFNs() != nil {
		t.Fatal("Reset left bits set")
	}
}

// TestBitmapOrRespectsCapacity checks union across chunks and bitmaps of
// different capacities: bits beyond the receiver's capacity are dropped,
// including those sharing its last word.
func TestBitmapOrRespectsCapacity(t *testing.T) {
	small, big := NewBitmap(chunkBits+100), NewBitmap(3*chunkBits)
	for _, i := range []uint64{0, 64, chunkBits - 1, chunkBits + 99, chunkBits + 100, 2*chunkBits + 5} {
		big.Set(i)
	}
	small.Or(big)
	var got []uint64
	small.ForEach(func(i uint64) { got = append(got, i) })
	want := []uint64{0, 64, chunkBits - 1, chunkBits + 99}
	if len(got) != len(want) {
		t.Fatalf("Or kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Or kept %v, want %v", got, want)
		}
	}
	if small.Count() != uint64(len(want)) {
		t.Fatalf("Count = %d after Or, want %d", small.Count(), len(want))
	}
}

// TestBitmapSetRangeMatchesSet: SetRange(lo, n) must leave a bitmap exactly
// as n calls to Set do, for ranges that start and end inside a word, on a
// word edge and on a chunk edge, span whole words and whole chunks, and
// reach past Len, on bitmaps already holding bits around them.
func TestBitmapSetRangeMatchesSet(t *testing.T) {
	const n = 2*chunkBits + 100
	edges := []uint64{0, 1, 63, 64, 65, 127, 128, 1000, chunkBits - 65, chunkBits - 1, chunkBits, chunkBits + 1, 2*chunkBits - 1, 2 * chunkBits, n - 1, n, n + 5}
	lens := []uint64{0, 1, 2, 63, 64, 65, 129, chunkBits - 1, chunkBits + 64, n}
	for _, lo := range edges {
		for _, k := range lens {
			got, want := NewBitmap(n), NewBitmap(n)
			for _, b := range []*Bitmap{got, want} {
				b.Set(lo - 1)
				b.Set(lo + k)
				b.Set(chunkBits + 3)
			}
			got.SetRange(lo, k)
			for i := lo; i < lo+k; i++ {
				want.Set(i)
			}
			if !slices.Equal(got.PFNs(), want.PFNs()) {
				t.Fatalf("SetRange(%d, %d) sets %d bits, %d calls to Set %d", lo, k, got.Count(), k, want.Count())
			}
		}
	}
}

// TestBitmapForEachRun: runs must be maximal across word and chunk edges,
// in a small chunk and a full one, and an error from fn must stop the walk
// and come back.
func TestBitmapForEachRun(t *testing.T) {
	b := NewBitmap(3 * chunkBits)
	b.SetRange(60, 10)               // across a word edge in a small chunk 0
	b.SetRange(chunkBits-3, 7)       // across the edge into chunk 1
	b.SetRange(chunkBits+64*20, 600) // ten words: chunk 1 is full
	b.Set(2*chunkBits + 63)          // alone in a small chunk 2
	want := [][2]int{{60, 10}, {chunkBits - 3, 7}, {chunkBits + 64*20, 600}, {2*chunkBits + 63, 1}}
	var got [][2]int
	if err := b.ForEachRun(func(p PFN, n int) error {
		got = append(got, [2]int{int(p), n})
		return nil
	}); err != nil || !slices.Equal(got, want) {
		t.Fatalf("ForEachRun visits %v, %v; want %v", got, err, want)
	}
	stop := errors.New("stop")
	got = got[:0]
	if err := b.ForEachRun(func(p PFN, n int) error {
		got = append(got, [2]int{int(p), n})
		if len(got) == 2 {
			return stop
		}
		return nil
	}); err != stop || !slices.Equal(got, want[:2]) {
		t.Fatalf("ForEachRun stopping at the second run visits %v and returns %v", got, err)
	}
}

// bmStep is one FuzzBitmap record: op 0 sets bit i, 1 clears it, 2 sets
// it in the other bitmap, 3 ORs the other bitmap in and 4 resets when i is
// a multiple of 8.
func bmStep(op byte, i uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{op}, i)
}

// FuzzBitmap checks the sparse bitmap against a map-backed reference over
// arbitrary Set/Clear/Reset/Or sequences spanning several chunks. Each
// 5-byte record is an opcode and a 32-bit index (bmStep). After every step
// Test of the step's index must match; at the end PFNs, Count and the runs
// ForEachRun visits must.
func FuzzBitmap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 255, 127, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 255, 255, 1, 0, 3, 0, 0, 0, 0, 0, 1, 128, 0, 0, 2, 0, 0, 0, 0})
	// Nine and then ten words in one chunk, one past a small chunk's
	// eight, around unlisted words whose bit matches a listed one's: Test
	// through the other bitmap's Set reads b at an unlisted word before and
	// after the promotion.
	var words [][]byte
	for w := uint32(0); w < 10; w++ {
		words = append(words, bmStep(0, chunkBits+128*w+5), bmStep(2, chunkBits+128*w+64+5))
	}
	words = append(words, bmStep(1, chunkBits+128*3+5), bmStep(0, chunkBits+128*3+6))
	f.Add(bytes.Join(words, nil))
	// Or and Reset between a small chunk and a full one, both ways: b's
	// small chunk 0 takes the other bitmap's full one, b's full chunk 2
	// takes a small one, and a Reset at a bit of b's small chunk 1 must
	// clear it; then both merge again into the reset chunks.
	var mixed [][]byte
	for w := uint32(0); w < 12; w++ {
		mixed = append(mixed, bmStep(2, 64*w+w), bmStep(0, 2*chunkBits+64*w))
	}
	mixed = append(mixed,
		bmStep(0, 64*20+1), bmStep(0, 3), bmStep(2, 2*chunkBits+64*30+7),
		bmStep(3, 0), bmStep(0, chunkBits+8), bmStep(0, chunkBits+640),
		bmStep(4, chunkBits+8), bmStep(0, chunkBits+72), bmStep(3, 64*11+11))
	f.Add(bytes.Join(mixed, nil))
	// Clear of the last set bit of a small chunk, then bits set again in
	// that word and a new one, and cleared.
	f.Add(bytes.Join([][]byte{
		bmStep(0, 2*chunkBits+77), bmStep(1, 2*chunkBits+77), bmStep(2, 2*chunkBits+77),
		bmStep(0, 2*chunkBits+78), bmStep(0, 2*chunkBits+640), bmStep(1, 2*chunkBits+78),
		bmStep(1, 2*chunkBits+640), bmStep(0, 2*chunkBits+79),
	}, nil))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 3*chunkBits + 1000
		b, other := NewBitmap(n), NewBitmap(n+chunkBits)
		ref, otherRef := map[uint64]bool{}, map[uint64]bool{}
		for len(ops) >= 5 {
			op, i := ops[0]%5, uint64(binary.LittleEndian.Uint32(ops[1:5]))%(n+chunkBits)
			ops = ops[5:]
			switch op {
			case 0:
				b.Set(i)
				if i < n {
					ref[i] = true
				}
			case 1:
				b.Clear(i)
				delete(ref, i)
			case 2:
				other.Set(i)
				otherRef[i] = true
			case 3:
				b.Or(other)
				for k := range otherRef {
					if k < n {
						ref[k] = true
					}
				}
			case 4:
				if i%8 == 0 {
					b.Reset()
					ref = map[uint64]bool{}
				}
			}
			if b.Test(i) != ref[i] {
				t.Fatalf("Test(%d) = %v, reference %v", i, b.Test(i), ref[i])
			}
		}
		want := make([]PFN, 0, len(ref))
		for k := range ref {
			want = append(want, PFN(k))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := b.PFNs()
		if len(got) != len(want) || b.Count() != uint64(len(want)) {
			t.Fatalf("bitmap holds %d bits (Count %d), reference %d", len(got), b.Count(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PFNs[%d] = %d, reference %d", i, got[i], want[i])
			}
		}
		var runs, wantRuns [][2]int
		b.ForEachRun(func(p PFN, n int) error {
			runs = append(runs, [2]int{int(p), n})
			return nil
		})
		for _, p := range want {
			if k := len(wantRuns) - 1; k >= 0 && wantRuns[k][0]+wantRuns[k][1] == int(p) {
				wantRuns[k][1]++
			} else {
				wantRuns = append(wantRuns, [2]int{int(p), 1})
			}
		}
		if !slices.Equal(runs, wantRuns) {
			t.Fatalf("ForEachRun visits %v, reference runs %v", runs, wantRuns)
		}
	})
}

func BenchmarkBitmapSet(b *testing.B) {
	bm := NewBitmap(ssdPages)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(uint64(i) & 0xffff)
	}
}

var spaceSink *AddressSpace

// BenchmarkNewAddressSpace is the per-Build cost of the machine's largest
// space: free regardless of its nominal size.
func BenchmarkNewAddressSpace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spaceSink = NewAddressSpace("ssd", 480<<30)
	}
}
