package pci

import "fmt"

// Address is a PCI bus/device/function address.
type Address struct {
	Bus, Device, Function uint8
}

func (a Address) String() string {
	return fmt.Sprintf("%02x:%02x.%d", a.Bus, a.Device, a.Function)
}

// Function is one PCI function: a configuration space plus the identity and
// ownership bookkeeping the simulator's passthrough machinery needs. Device
// behavior (rings, registers) lives with the device model that embeds it.
type Function struct {
	Name string
	// Config points at the function's own config space, allocated with it.
	Config *ConfigSpace
	// VFParent points at the physical function for SR-IOV virtual functions.
	VFParent *Function

	boundDriver string

	Addr Address
	// IsVirtual marks host-hypervisor-provided virtual devices — the ones
	// virtual-passthrough assigns — as opposed to physical hardware.
	IsVirtual bool

	config ConfigSpace
}

// NewFunction builds a PCI function with the given identity. The function
// and its config space are one 320-byte allocation: Addr and IsVirtual sit
// together so that the pair fits that size class.
func NewFunction(name string, addr Address, vendor, device uint16, class uint32) *Function {
	f := &Function{Name: name, Addr: addr}
	f.config.init(vendor, device, class)
	f.Config = &f.config
	return f
}

// Bind attaches a named driver (e.g. "virtio-net", "vfio-pci"). Passthrough
// assignment requires unbinding the owner's driver first, exactly the dance
// the paper describes for guest hypervisors.
func (f *Function) Bind(driver string) error {
	if f.boundDriver != "" && f.boundDriver != driver {
		return fmt.Errorf("pci: %s already bound to %s", f.Name, f.boundDriver)
	}
	f.boundDriver = driver
	return nil
}

// Driver returns the bound driver name ("" when unbound).
func (f *Function) Driver() string { return f.boundDriver }

// Bus is a collection of PCI functions with distinct addresses. The zero
// value is an empty bus, so a VM or machine holds its bus by value.
type Bus struct {
	funcs []*Function
	next  uint8 // next device number for AutoAdd
}

// populated reports whether a function sits at the address. A bus holds a
// handful of functions, so a scan beats a hash.
func (b *Bus) populated(a Address) bool {
	for _, f := range b.funcs {
		if f.Addr == a {
			return true
		}
	}
	return false
}

// Add places a function on the bus. Duplicate addresses are rejected.
func (b *Bus) Add(f *Function) error {
	if b.populated(f.Addr) {
		return fmt.Errorf("pci: address %s already populated", f.Addr)
	}
	b.funcs = append(b.funcs, f)
	return nil
}

// AutoAdd places a function at the next free device slot on bus 0 and
// returns the assigned address.
func (b *Bus) AutoAdd(f *Function) Address {
	for {
		addr := Address{Bus: 0, Device: b.next, Function: 0}
		b.next++
		if !b.populated(addr) {
			f.Addr = addr
			b.funcs = append(b.funcs, f)
			return addr
		}
	}
}

// SR-IOV capability register offsets (relative to the capability header).
const (
	sriovOffTotalVFs = 2
	sriovOffNumVFs   = 4
)

// EnableSRIOV adds the SR-IOV capability to a physical function, advertising
// totalVFs virtual functions.
func EnableSRIOV(pf *Function, totalVFs uint16) error {
	off, err := pf.Config.AddCapability(CapSRIOV, 8)
	if err != nil {
		return err
	}
	pf.Config.WriteU16(off+sriovOffTotalVFs, totalVFs)
	return nil
}

// CreateVFs instantiates n SR-IOV virtual functions of pf on the bus,
// returning them. It fails if the PF lacks the capability or n exceeds
// TotalVFs.
func CreateVFs(b *Bus, pf *Function, n int) ([]*Function, error) {
	off, ok := pf.Config.FindCapability(CapSRIOV)
	if !ok {
		return nil, fmt.Errorf("pci: %s has no SR-IOV capability", pf.Name)
	}
	total := int(pf.Config.ReadU16(off + sriovOffTotalVFs))
	cur := int(pf.Config.ReadU16(off + sriovOffNumVFs))
	if cur+n > total {
		return nil, fmt.Errorf("pci: %s supports %d VFs, %d requested with %d existing", pf.Name, total, n, cur)
	}
	var vfs []*Function
	for i := 0; i < n; i++ {
		vf := NewFunction(
			fmt.Sprintf("%s-vf%d", pf.Name, cur+i),
			Address{}, // assigned by AutoAdd
			pf.Config.VendorID(), pf.Config.DeviceID()+1, uint32(pf.Config.ReadU32(offClassCode))&0xffffff,
		)
		vf.VFParent = pf
		b.AutoAdd(vf)
		vfs = append(vfs, vf)
	}
	pf.Config.WriteU16(off+sriovOffNumVFs, uint16(cur+n))
	return vfs, nil
}
