package mem

import (
	"encoding/binary"
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

// FuzzBitmap checks the sparse bitmap against a map-backed reference over
// arbitrary Set/Clear/Reset/Or sequences spanning several chunks. Each
// 5-byte record is an opcode and a 32-bit index.
func FuzzBitmap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 255, 127, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 255, 255, 1, 0, 3, 0, 0, 0, 0, 0, 1, 128, 0, 0, 2, 0, 0, 0, 0})
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
