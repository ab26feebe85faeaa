package hyper

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/virtio"
)

// DeviceClass distinguishes the modeled device types.
type DeviceClass int

const (
	// DevNet is a network device.
	DevNet DeviceClass = iota
	// DevBlk is a block device.
	DevBlk
)

// AssignedDevice is a device as seen by one VM: which model backs it, which
// hypervisor level emulates it (or none, for physical passthrough), where its
// doorbell lives in the VM's physical address space, and how its completion
// interrupts reach the VM. The four I/O configurations of the paper map to:
//
//   - paravirtual:          ProviderLevel = VM.Level-1, Lower chains downward
//   - device passthrough:   Phys set, ProviderLevel = -1 (no interposition)
//   - virtual-passthrough:  ProviderLevel = 0 for a VM.Level >= 2, VP = true
//   - non-nested virtual:   ProviderLevel = 0 for a VM.Level == 1
type AssignedDevice struct {
	Name  string
	Class DeviceClass
	VM    *VM

	// Net/Blk back virtual devices; Phys backs passthrough.
	Net  *virtio.NetDevice
	Blk  *virtio.BlkDevice
	Phys *pci.Function

	// ProviderLevel is the hypervisor level that emulates the device; -1
	// means real hardware (passthrough).
	ProviderLevel int
	// VP marks host-provided devices directly assigned to a nested VM.
	VP bool
	// Lower is the device the provider itself uses to reach the hardware
	// (the paravirtual cascade); nil when the provider is L0 or physical.
	Lower *AssignedDevice

	// Doorbell is the queue-notify MMIO window in the VM's physical space.
	Doorbell     mem.Addr
	DoorbellSize mem.Addr
	// IRQ is the completion interrupt vector.
	IRQ apic.Vector
	// PostedDelivery reports that completion interrupts reach the VM's vCPU
	// without an exit on the delivery path (APICv/posted interrupts for
	// host-provided devices, VT-d posting for passthrough, vIOMMU posting
	// for virtual-passthrough).
	PostedDelivery bool
	// DMAView is the memory view the device's backend uses for ring and
	// payload access: the VM's own memory for an ordinary virtual device, a
	// vIOMMU-translating view for virtual-passthrough.
	DMAView virtio.DMA
}

// FindDeviceByDoorbell locates the device owning an MMIO address.
func (vm *VM) FindDeviceByDoorbell(a mem.Addr) *AssignedDevice {
	for _, d := range vm.Devices {
		if a >= d.Doorbell && a < d.Doorbell+d.DoorbellSize {
			return d
		}
	}
	return nil
}

// FindDevice returns the first device of the given class.
func (vm *VM) FindDevice(c DeviceClass) *AssignedDevice {
	for _, d := range vm.Devices {
		if d.Class == c {
			return d
		}
	}
	return nil
}

// AttachParavirtNet gives the VM a virtio-net device emulated by its own
// hypervisor (the traditional virtual I/O model). For a nested VM this
// builds the cascade: the provider's own net device becomes the lower link.
func AttachParavirtNet(vm *VM, name string) (*AssignedDevice, error) {
	return attachParavirt(vm, name, DevNet)
}

// AttachParavirtBlk gives the VM a virtio-blk device emulated by its own
// hypervisor, cascading like AttachParavirtNet for nested VMs.
func AttachParavirtBlk(vm *VM, name string) (*AssignedDevice, error) {
	return attachParavirt(vm, name, DevBlk)
}

// attachParavirt gives the VM a virtio device of the class, emulated by its
// own hypervisor, on the next doorbell window; for a nested VM the
// provider's own device of the class becomes the lower link of the cascade.
func attachParavirt(vm *VM, name string, class DeviceClass) (*AssignedDevice, error) {
	doorbell := vm.AllocMMIO(mem.PageSize)
	dev := &AssignedDevice{
		Name:          name,
		Class:         class,
		VM:            vm,
		ProviderLevel: vm.Owner.Level,
		Doorbell:      doorbell,
		DoorbellSize:  mem.PageSize,
		// Host-provided virtio with vhost uses posted interrupts; a guest
		// hypervisor's device relies on its (emulated) APICv, which the host
		// backs with real posted interrupts, so delivery into the VM is
		// exit-free in both cases. The *sending* side cost depends on the
		// provider level and is charged by the world engine.
		PostedDelivery: true,
		DMAView:        vm.Memory(),
	}
	var d *virtio.Device
	var driver, kind string
	switch class {
	case DevNet:
		nd, err := virtio.NewNetDevice(name, doorbell)
		if err != nil {
			return nil, err
		}
		dev.Net, d = nd, nd.Device
		dev.IRQ, driver, kind = apic.VectorVirtioIRQ, "virtio-net", "net"
	case DevBlk:
		// A nested blk device ultimately stores into the same SSD through
		// the cascade; the device model writes the backing store directly
		// while the cost path charges each interposed level.
		bd, err := virtio.NewBlkDevice(name, doorbell, vm.Owner.Machine.SSD.Backing)
		if err != nil {
			return nil, err
		}
		dev.Blk, d = bd, bd.Device
		dev.IRQ, driver, kind = apic.VectorVirtioIRQ+1, "virtio-blk", "blk"
	}
	vm.Bus.AutoAdd(d.Fn)
	if err := d.Fn.Bind(driver); err != nil {
		return nil, err
	}
	if err := programMSIX(d, dev.IRQ); err != nil {
		return nil, err
	}
	if hostVM := vm.Owner.HostVM; hostVM != nil {
		dev.Lower = hostVM.FindDevice(class)
		if dev.Lower == nil {
			return nil, fmt.Errorf("hyper: %s: provider VM %s has no %s device to back the cascade", name, hostVM.Name, kind)
		}
	}
	vm.Devices = append(vm.Devices, dev)
	return dev, nil
}

// programMSIX sets up a virtio device's per-queue interrupt vectors: queue
// i uses vector base+i, as the guest's driver would program during probe.
func programMSIX(d *virtio.Device, base apic.Vector) error {
	for qi := 0; qi < d.NumQueues(); qi++ {
		if err := d.MSIX.SetEntry(qi, uint64(qi), uint32(base)+uint32(qi)); err != nil {
			return err
		}
	}
	return nil
}

// AttachPassthroughNIC assigns a physical SR-IOV virtual function to the VM
// through the whole nesting chain (device passthrough baseline). Every
// intermediate level must expose an IOMMU for its hypervisor to program; the
// physical IOMMU's posted-interrupt support delivers completions without
// exits, and doorbell MMIO is mapped straight through the EPT chain so kicks
// never exit.
func AttachPassthroughNIC(vm *VM, vf *pci.Function) (*AssignedDevice, error) {
	if vf.VFParent == nil {
		return nil, fmt.Errorf("hyper: %s is not an SR-IOV virtual function", vf.Name)
	}
	// Walk the chain from L1 up to the target VM, checking each level has an
	// IOMMU its hypervisor can program for the assignment.
	m := vm.Owner.Machine
	if m.IOMMU == nil {
		return nil, fmt.Errorf("hyper: passthrough to %s requires a physical IOMMU", vm.Name)
	}
	for cur := vm; cur.Owner.HostVM != nil; cur = cur.Owner.HostVM {
		hostVM := cur.Owner.HostVM
		if hostVM.VIOMMU == nil {
			return nil, fmt.Errorf("hyper: passthrough to %s requires a virtual IOMMU in %s", vm.Name, hostVM.Name)
		}
	}
	if vf.Driver() != "" {
		return nil, fmt.Errorf("hyper: VF %s still bound to %s; unbind before assignment", vf.Name, vf.Driver())
	}
	if err := vf.Bind("vfio-pci"); err != nil {
		return nil, err
	}
	dom := m.IOMMU.CreateDomain(vm.Name)
	if err := m.IOMMU.Attach(vf, dom); err != nil {
		return nil, err
	}
	doorbell := vm.AllocMMIO(mem.PageSize)
	dev := &AssignedDevice{
		Name:           vf.Name,
		Class:          DevNet,
		VM:             vm,
		Phys:           vf,
		ProviderLevel:  -1,
		Doorbell:       doorbell,
		DoorbellSize:   mem.PageSize,
		IRQ:            apic.VectorVirtioIRQ,
		PostedDelivery: m.IOMMU.PostedCapable(),
	}
	vm.Bus.AutoAdd(vf)
	vm.Devices = append(vm.Devices, dev)
	return dev, nil
}
