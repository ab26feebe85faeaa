package machine

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/vmx"
)

func TestNewMachine(t *testing.T) {
	// The paper's testbed shape.
	m, err := New(Config{Name: "m0", CPUs: 20, MemoryBytes: 192 << 30, Caps: vmx.HardwareCaps, NICVFs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.CPUs) != 20 {
		t.Fatalf("built %d CPUs", len(m.CPUs))
	}
	if m.IOMMU == nil || !m.IOMMU.PostedCapable() {
		t.Error("VT-d with posted interrupts expected")
	}
	if m.NIC == nil {
		t.Error("NIC expected")
	}
	if m.SSD == nil || m.SSD.Backing.NumPages() != 480<<30/mem.PageSize {
		t.Error("480GB SSD expected")
	}
	if m.Stats == nil {
		t.Error("stats missing")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Name: "bad", CPUs: 0}); err == nil {
		t.Fatal("zero CPUs accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{Name: "bad", CPUs: -1})
}

func TestNoIOMMUWithoutCap(t *testing.T) {
	m := MustNew(Config{
		Name: "m", CPUs: 2, MemoryBytes: 1 << 30,
		Caps: vmx.HardwareCaps.Without(vmx.CapIOMMU),
	})
	if m.IOMMU != nil {
		t.Fatal("IOMMU built without the capability")
	}
}

func TestCreateVFs(t *testing.T) {
	m := MustNew(Config{Name: "m", CPUs: 2, MemoryBytes: 1 << 30, Caps: vmx.HardwareCaps, NICVFs: 4})
	vfs, err := m.CreateVFs(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vfs) != 4 {
		t.Fatalf("created %d VFs", len(vfs))
	}
	if _, err := m.CreateVFs(1); err == nil {
		t.Fatal("exceeding NICVFs should fail")
	}
}
