package iommu

import (
	"strings"
	"testing"

	"repro/internal/apic"
	"repro/internal/mem"
	"repro/internal/pci"
)

func dev(name string, d uint8) *pci.Function {
	return pci.NewFunction(name, pci.Address{Bus: 0, Device: d}, 0x1af4, 0x1000, 0x020000)
}

func TestDomainsAndAttach(t *testing.T) {
	u := New("vtd0", true)
	d1 := u.CreateDomain("vm1")
	if u.CreateDomain("vm1") != d1 {
		t.Fatal("CreateDomain not idempotent")
	}
	f := dev("nic", 3)
	if u.attach[f.Addr] != nil {
		t.Fatal("unattached device has a domain")
	}
	if err := u.Attach(f, d1); err != nil {
		t.Fatal(err)
	}
	if err := u.Attach(f, d1); err != nil {
		t.Fatal("re-attach to same domain should be idempotent")
	}
	d2 := u.CreateDomain("vm2")
	if err := u.Attach(f, d2); err == nil {
		t.Fatal("attach to second domain should fail")
	}
	if u.attach[f.Addr] != d1 {
		t.Fatal("device left its first domain")
	}
}

func TestTranslate(t *testing.T) {
	u := New("vtd0", true)
	d := u.CreateDomain("vm1")
	f := dev("nic", 3)
	u.Attach(f, d)
	u.Map(d, 0x10, 0x99, mem.PermRW)

	addr, levels, err := u.Translate(f, 0x10*mem.PageSize+0x123, mem.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if addr != 0x99*mem.PageSize+0x123 {
		t.Fatalf("translated to %#x", uint64(addr))
	}
	if levels != 4 {
		t.Fatalf("walk touched %d levels, want 4", levels)
	}
	if _, _, err := u.Translate(f, 0x11*mem.PageSize, mem.PermRead); err == nil {
		t.Fatal("unmapped DMA should be blocked")
	}
	u.Unmap(d, 0x10)
	if _, _, err := u.Translate(f, 0x10*mem.PageSize, mem.PermRead); err == nil {
		t.Fatal("DMA after unmap should be blocked")
	}
}

func TestTranslatePermissionAndIsolation(t *testing.T) {
	u := New("vtd0", true)
	d1, d2 := u.CreateDomain("vm1"), u.CreateDomain("vm2")
	f1, f2 := dev("nic1", 3), dev("nic2", 4)
	u.Attach(f1, d1)
	u.Attach(f2, d2)
	u.Map(d1, 1, 100, mem.PermRead)

	if _, _, err := u.Translate(f1, mem.PageSize, mem.PermWrite); err == nil {
		t.Fatal("write through read-only mapping should be blocked")
	}
	// Isolation: f2's domain has no mapping for the same IOVA.
	if _, _, err := u.Translate(f2, mem.PageSize, mem.PermRead); err == nil {
		t.Fatal("domain isolation violated")
	}
	// DMA from a device never attached at all.
	f3 := dev("rogue", 5)
	if _, _, err := u.Translate(f3, 0, mem.PermRead); err == nil {
		t.Fatal("unattached DMA should be blocked")
	}
}

func TestRemappedMSI(t *testing.T) {
	u := New("vtd0", false)
	if err := u.ProgramIRTE(7, apic.VectorVirtioIRQ, 2); err != nil {
		t.Fatal(err)
	}
	del, err := u.DeliverMSI(7)
	if err != nil {
		t.Fatal(err)
	}
	if del.Posted || del.NotifyCPU != 2 || del.Vector != apic.VectorVirtioIRQ || !del.NeedNotify {
		t.Fatalf("delivery = %+v", del)
	}
	if _, err := u.DeliverMSI(8); err == nil {
		t.Fatal("MSI through invalid IRTE should fail")
	}
	if err := u.ProgramIRTE(-1, 0, 0); err == nil {
		t.Fatal("negative IRTE index accepted")
	}
}

func TestPostedMSI(t *testing.T) {
	u := New("vtd0", true)
	pid := apic.NewPIDescriptor(3)
	if err := u.ProgramPostedIRTE(1, apic.VectorVirtioIRQ, pid); err != nil {
		t.Fatal(err)
	}
	del, err := u.DeliverMSI(1)
	if err != nil {
		t.Fatal(err)
	}
	if !del.Posted || del.NotifyCPU != 3 || !del.NeedNotify {
		t.Fatalf("delivery = %+v", del)
	}
	if !pid.Pending() {
		t.Fatal("vector not posted to descriptor")
	}
	// Second MSI coalesces while notification outstanding.
	del2, err := u.DeliverMSI(1)
	if err != nil {
		t.Fatal(err)
	}
	if del2.NeedNotify {
		t.Fatal("coalesced MSI should not need a new notification")
	}
}

// TestIRTBoundaries pins the remapping table's range: the last of the 256
// modeled entries programs in either format and index 256 in neither,
// although the table is allocated only up to the highest programmed index.
// An MSI through an in-range entry beyond that index fails as invalid
// rather than indexing past the table.
func TestIRTBoundaries(t *testing.T) {
	u := New("vtd0", true)
	pid := apic.NewPIDescriptor(0)
	if _, err := u.DeliverMSI(0); err == nil {
		t.Fatal("MSI through a never-programmed table should fail")
	}
	if err := u.ProgramIRTE(7, apic.VectorVirtioIRQ, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := u.DeliverMSI(200); err == nil || !strings.Contains(err.Error(), "invalid IRTE 200") {
		t.Fatalf("MSI through unprogrammed IRTE 200 = %v, want the invalid-IRTE error", err)
	}
	if err := u.ProgramIRTE(255, apic.VectorVirtioIRQ, 1); err != nil {
		t.Fatalf("ProgramIRTE(255) = %v", err)
	}
	if err := u.ProgramPostedIRTE(255, apic.VectorVirtioIRQ, pid); err != nil {
		t.Fatalf("ProgramPostedIRTE(255) = %v", err)
	}
	if del, err := u.DeliverMSI(255); err != nil || !del.Posted {
		t.Fatalf("MSI through IRTE 255 = %+v, %v; want posted", del, err)
	}
	if err := u.ProgramIRTE(256, apic.VectorVirtioIRQ, 1); err == nil {
		t.Fatal("ProgramIRTE(256) accepted")
	}
	if err := u.ProgramPostedIRTE(256, apic.VectorVirtioIRQ, pid); err == nil {
		t.Fatal("ProgramPostedIRTE(256) accepted")
	}
	if _, err := u.DeliverMSI(256); err == nil {
		t.Fatal("MSI through IRTE 256 should fail")
	}
	if del, err := u.DeliverMSI(7); err != nil || del.Posted || del.NotifyCPU != 1 {
		t.Fatalf("IRTE 7 after growth = %+v, %v; want remapped to CPU 1", del, err)
	}
}

func TestPostedRequiresCapability(t *testing.T) {
	u := New("viommu0", false)
	pid := apic.NewPIDescriptor(0)
	if err := u.ProgramPostedIRTE(0, apic.VectorVirtioIRQ, pid); err == nil {
		t.Fatal("posted IRTE without capability should fail")
	}
	u.SetPostedCapable(true)
	if !u.PostedCapable() {
		t.Fatal("capability toggle failed")
	}
	if err := u.ProgramPostedIRTE(0, apic.VectorVirtioIRQ, pid); err != nil {
		t.Fatal(err)
	}
}

func TestDMADataPathThroughIOMMU(t *testing.T) {
	// A device writes into VM memory through the unit, bytes land at the
	// translated location — the paper's Figure 3 step 4/5.
	host := mem.NewAddressSpace("host", 1<<24)
	u := New("vtd0", true)
	d := u.CreateDomain("vm1")
	f := dev("nic", 3)
	u.Attach(f, d)
	u.Map(d, 0x20, 0x80, mem.PermRW)

	payload := []byte("packet data")
	target, _, err := u.Translate(f, 0x20*mem.PageSize, mem.PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Write(target, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	host.Read(0x80*mem.PageSize, got)
	if string(got) != string(payload) {
		t.Fatal("DMA payload not at translated address")
	}
}
