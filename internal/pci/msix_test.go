package pci

import "testing"

func msixFn() *Function {
	return NewFunction("virtio-net", Address{0, 5, 0}, 0x1af4, 0x1000, 0x020000)
}

func mustMSIX(t *testing.T, fn *Function, n int) *MSIXTable {
	t.Helper()
	tbl, err := AddMSIX(fn, n)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestMSIXDiscovery(t *testing.T) {
	fn := msixFn()
	if _, ok := fn.Config.FindCapability(CapMSIX); ok {
		t.Fatal("MSI-X discovered before install")
	}
	tbl := mustMSIX(t, fn, 3)
	if tbl.Size() != 3 {
		t.Fatalf("Size = %d", tbl.Size())
	}
	off, ok := fn.Config.FindCapability(CapMSIX)
	if !ok {
		t.Fatal("capability not in chain")
	}
	// The table-size field holds N-1, the way a driver discovers the count.
	if n := int(fn.Config.ReadU16(off+msixOffTableSize)) + 1; n != 3 {
		t.Fatalf("advertised size = %d", n)
	}
}

func TestMSIXProgram(t *testing.T) {
	tbl := mustMSIX(t, msixFn(), 2)
	if err := tbl.SetEntry(1, 0xfee00000, 41); err != nil {
		t.Fatal(err)
	}
	if e := tbl.entries[1]; e.Addr != 0xfee00000 || e.Data != 41 {
		t.Fatalf("message = %#x/%d", e.Addr, e.Data)
	}
	if e := tbl.entries[0]; e != (MSIXEntry{}) {
		t.Fatalf("unprogrammed vector = %+v", e)
	}
}

func TestMSIXBounds(t *testing.T) {
	tbl := mustMSIX(t, msixFn(), 2)
	if err := tbl.SetEntry(2, 0, 0); err == nil {
		t.Fatal("out-of-range SetEntry accepted")
	}
	if err := tbl.SetEntry(-1, 0, 0); err == nil {
		t.Fatal("negative SetEntry accepted")
	}
	if _, err := AddMSIX(msixFn(), 0); err == nil {
		t.Fatal("zero table size accepted")
	}
	if _, err := AddMSIX(msixFn(), 2049); err == nil {
		t.Fatal("oversized table accepted")
	}
}
