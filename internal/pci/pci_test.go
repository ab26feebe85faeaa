package pci

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestConfigSpaceIdentity(t *testing.T) {
	c := NewConfigSpace(0x1af4, 0x1000, 0x020000) // virtio-net identity
	if c.VendorID() != 0x1af4 {
		t.Fatalf("vendor = %#x", c.VendorID())
	}
	if c.DeviceID() != 0x1000 {
		t.Fatalf("device = %#x", c.DeviceID())
	}
}

func TestConfigSpaceRegisterWidths(t *testing.T) {
	c := NewConfigSpace(1, 2, 3)
	c.WriteU32(0x40, 0x11223344)
	if c.ReadU16(0x40) != 0x3344 || c.ReadU16(0x42) != 0x1122 {
		t.Fatal("little-endian layout broken")
	}
	if c.bytes[0x43] != 0x11 {
		t.Fatal("byte layout broken")
	}
}

func TestBARs(t *testing.T) {
	c := NewConfigSpace(1, 2, 3)
	c.SetBAR(0, 0xfe000000)
	c.SetBAR(5, 0xfd000000)
	if c.ReadU32(offBAR0) != 0xfe000000 || c.ReadU32(offBAR0+4*5) != 0xfd000000 {
		t.Fatal("BAR round trip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range BAR should panic")
		}
	}()
	c.SetBAR(6, 0)
}

func TestCapabilityChain(t *testing.T) {
	c := NewConfigSpace(1, 2, 3)
	if _, ok := c.FindCapability(CapMSI); ok {
		t.Fatal("empty chain found a capability")
	}
	if c.Capabilities() != nil {
		t.Fatal("empty chain should list nothing")
	}
	for _, cap := range []CapID{CapMSI, CapPCIe, CapMigration} {
		if _, err := c.AddCapability(cap, capBody(cap)); err != nil {
			t.Fatal(err)
		}
	}
	caps := c.Capabilities()
	if len(caps) != 3 || caps[0] != CapMSI || caps[1] != CapPCIe || caps[2] != CapMigration {
		t.Fatalf("chain = %v", caps)
	}
	off, ok := c.FindCapability(CapMigration)
	if !ok || off == 0 {
		t.Fatal("migration capability not found")
	}
	if _, ok := c.FindCapability(CapMSIX); ok {
		t.Fatal("found a capability never added")
	}
}

func TestCapabilityChainManyProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		c := NewConfigSpace(1, 2, 3)
		n := len(ids)
		if n > 12 {
			n = 12
		}
		for i := 0; i < n; i++ {
			if _, err := c.AddCapability(CapID(ids[i]%0x30+1), 2); err != nil {
				return false
			}
		}
		return len(c.Capabilities()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// capBody returns a plausible body size for a capability in tests.
func capBody(id CapID) int {
	switch id {
	case CapPCIe:
		return 20
	default:
		return 12
	}
}

func TestCapabilityOverflowIsError(t *testing.T) {
	c := NewConfigSpace(1, 2, 3)
	added := 0
	for {
		if _, err := c.AddCapability(CapVendor, 30); err != nil {
			break
		}
		added++
		if added > 20 {
			t.Fatal("capability chain never overflowed")
		}
	}
	// The chain that was built before exhaustion must still be intact.
	if got := len(c.Capabilities()); got != added {
		t.Fatalf("chain holds %d capabilities, added %d", got, added)
	}
}

func TestFunctionBinding(t *testing.T) {
	f := NewFunction("virtio-net", Address{0, 3, 0}, 0x1af4, 0x1000, 0x020000)
	if err := f.Bind("virtio-net"); err != nil {
		t.Fatal(err)
	}
	if err := f.Bind("virtio-net"); err != nil {
		t.Fatal("rebinding same driver should be idempotent")
	}
	if err := f.Bind("vfio-pci"); err == nil {
		t.Fatal("binding a second driver should fail")
	}
	if f.Driver() != "virtio-net" {
		t.Fatalf("driver = %q", f.Driver())
	}
}

func TestBusAdd(t *testing.T) {
	b := new(Bus)
	f1 := NewFunction("nic", Address{0, 3, 0}, 1, 2, 3)
	f2 := NewFunction("ssd", Address{0, 1, 0}, 1, 3, 3)
	if err := b.Add(f1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(f2); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(NewFunction("dup", Address{0, 3, 0}, 1, 2, 3)); err == nil {
		t.Fatal("duplicate address accepted")
	}
	if !slices.Equal(b.funcs, []*Function{f1, f2}) || f1.Addr != (Address{0, 3, 0}) || f2.Addr != (Address{0, 1, 0}) {
		t.Fatal("functions not at their addresses")
	}
}

func TestBusAutoAdd(t *testing.T) {
	b := new(Bus)
	var addrs []Address
	for i := 0; i < 5; i++ {
		f := NewFunction("dev", Address{}, 1, 2, 3)
		addrs = append(addrs, b.AutoAdd(f))
	}
	seen := map[Address]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("AutoAdd reused address %s", a)
		}
		seen[a] = true
	}
}

func TestSRIOV(t *testing.T) {
	b := new(Bus)
	pf := NewFunction("x520", Address{0, 3, 0}, 0x8086, 0x10fb, 0x020000)
	b.Add(pf)
	if _, err := CreateVFs(b, pf, 2); err == nil {
		t.Fatal("VF creation without capability should fail")
	}
	if err := EnableSRIOV(pf, 4); err != nil {
		t.Fatal(err)
	}
	vfs, err := CreateVFs(b, pf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vfs) != 3 {
		t.Fatalf("created %d VFs", len(vfs))
	}
	for _, vf := range vfs {
		if vf.VFParent != pf {
			t.Fatal("VF parent not set")
		}
		if !slices.Contains(b.funcs, vf) {
			t.Fatal("VF not on bus")
		}
	}
	if _, err := CreateVFs(b, pf, 2); err == nil {
		t.Fatal("exceeding TotalVFs should fail")
	}
	if _, err := CreateVFs(b, pf, 1); err != nil {
		t.Fatalf("filling to TotalVFs should succeed: %v", err)
	}
}

type fakeOps struct {
	logging  bool
	captures int
}

func (f *fakeOps) CaptureState() ([]byte, error) {
	f.captures++
	return []byte("device-state-blob"), nil
}
func (f *fakeOps) SetDirtyLogging(e bool) { f.logging = e }

func TestMigrationCapability(t *testing.T) {
	fn := NewFunction("virtio-net", Address{0, 4, 0}, 0x1af4, 0x1000, 0x020000)
	ops := &fakeOps{}
	if _, ok := fn.Config.FindCapability(CapMigration); ok {
		t.Fatal("capability present before install")
	}
	cap, err := AddMigrationCap(fn, ops)
	if err != nil {
		t.Fatal(err)
	}
	off, ok := fn.Config.FindCapability(CapMigration)
	if !ok {
		t.Fatal("capability not discoverable")
	}
	status := func() uint32 { return fn.Config.ReadU32(off + migOffStatus) }
	// Guest hypervisor enables dirty logging.
	if err := cap.GuestWriteCtrl(MigCtrlDirtyLog); err != nil {
		t.Fatal(err)
	}
	if !ops.logging {
		t.Fatal("host dirty logging not enabled")
	}
	if status()&MigStatusLogging == 0 {
		t.Fatal("status does not show logging")
	}
	// Guest hypervisor requests a state capture.
	if err := cap.GuestWriteCtrl(MigCtrlDirtyLog | MigCtrlCapture); err != nil {
		t.Fatal(err)
	}
	if ops.captures != 1 {
		t.Fatalf("captures = %d", ops.captures)
	}
	if string(cap.CapturedState()) != "device-state-blob" {
		t.Fatal("captured state wrong")
	}
	if status()&MigStatusCaptured == 0 {
		t.Fatal("status does not show capture")
	}
	// The capture bit self-clears in CTRL.
	if fn.Config.ReadU16(off+migOffCtrl)&MigCtrlCapture != 0 {
		t.Fatal("capture bit did not self-clear")
	}
	// Disabling logging propagates.
	if err := cap.GuestWriteCtrl(0); err != nil {
		t.Fatal(err)
	}
	if ops.logging {
		t.Fatal("host dirty logging not disabled")
	}
}

type failingOps struct{}

func (failingOps) CaptureState() ([]byte, error) {
	return nil, fmt.Errorf("encoder wedged")
}
func (failingOps) SetDirtyLogging(bool) {}

func TestMigrationCaptureFailureIsError(t *testing.T) {
	// A device whose state capture fails must surface the failure to the
	// guest's CTRL write (it used to panic inside the capability).
	fn := NewFunction("flaky", Address{0, 5, 0}, 1, 2, 3)
	cap, err := AddMigrationCap(fn, failingOps{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cap.GuestWriteCtrl(MigCtrlCapture); err == nil {
		t.Fatal("failed capture must error the CTRL write")
	}
	if fn.Config.ReadU32(cap.off+migOffStatus)&MigStatusCaptured != 0 {
		t.Fatal("status claims a capture that failed")
	}
	if cap.CapturedState() != nil {
		t.Fatal("failed capture left state behind")
	}
}

func TestMigrationCapNoOps(t *testing.T) {
	fn := NewFunction("dev", Address{}, 1, 2, 3)
	cap, err := AddMigrationCap(fn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cap.GuestWriteCtrl(MigCtrlDirtyLog); err == nil {
		t.Fatal("ctrl write without host ops should fail")
	}
}
