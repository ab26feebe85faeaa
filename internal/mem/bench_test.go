package mem

import "testing"

func BenchmarkPageTableMap(b *testing.B) {
	pt := NewPageTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pt.Map(PFN(i&0xfffff), PFN(i), PermRW)
	}
}

func BenchmarkPageTableLookup(b *testing.B) {
	pt := NewPageTable()
	for i := 0; i < 1<<16; i++ {
		pt.Map(PFN(i), PFN(i+1000), PermRW)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pt.Lookup(PFN(i&0xffff), PermRead)
	}
}

func BenchmarkAddressSpaceWrite(b *testing.B) {
	as := NewAddressSpace("bench", 1<<30)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Write(Addr((i&0xff)*PageSize), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddressSpaceWriteQuadword writes one quadword to each fresh page
// of a 4096-page region, the unit the migration churn writes: ns, bytes and
// allocations per page, each page's share of its frame leaf and of a new
// space per region included.
func BenchmarkAddressSpaceWriteQuadword(b *testing.B) {
	const pages = 4096
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var as *AddressSpace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := PFN(i % pages)
		if p == 0 {
			as = NewAddressSpace("bench", pages*PageSize)
		}
		if err := as.Write(p.Base(), val); err != nil {
			b.Fatal(err)
		}
	}
}
