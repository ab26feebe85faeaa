// Package iommu models an I/O memory management unit. The same type serves
// as the physical VT-d unit (device passthrough baseline) and as the virtual
// IOMMU a hypervisor exposes to its guest (virtual-passthrough): in both
// roles it is a set of per-device translation domains plus an interrupt
// remapping table with optional posted-interrupt support.
//
// The asymmetry the paper exploits lives one level up: with
// virtual-passthrough, only the *L1 virtual IOMMU's* table is consulted on
// the data path, because the host hypervisor folds the whole vIOMMU chain
// into it as a combined shadow table (Figure 6). Package core folds the chain
// lazily, one DMA'd frame at a time, as the device first touches it
// (VPState.ensureShadow); this package provides the unit itself.
package iommu

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/mem"
	"repro/internal/pci"
)

// Domain is one translation context: devices attached to the domain have
// their DMA addresses translated through the domain's page table.
type Domain struct {
	Name string
	// Table points at the domain's own table, allocated with it.
	Table *mem.PageTable
	table mem.PageTable
}

// IOMMU is one remapping unit.
type IOMMU struct {
	name   string
	posted bool // interrupt posting capability
	// domains and attach are made on the first CreateDomain and Attach, so
	// a unit nothing is assigned through costs one allocation.
	domains map[string]*Domain
	attach  map[pci.Address]*Domain
	// irt is the interrupt-remapping table, allocated on first programming
	// and grown to the highest programmed index; entries past its length
	// read as invalid.
	irt []irtEntry
}

// irtSize is the number of interrupt-remapping entries the unit models.
const irtSize = 256

type irtEntry struct {
	valid  bool
	posted bool
	pid    *apic.PIDescriptor
	vector apic.Vector
	// destCPU is used for remapped (non-posted) delivery.
	destCPU int
}

// New returns an IOMMU. posted selects whether the unit supports interrupt
// posting (VT-d posted interrupts); the paper's DVH-VP baseline runs with a
// vIOMMU lacking it, and Figure 8's first increment adds it.
func New(name string, posted bool) *IOMMU {
	return &IOMMU{name: name, posted: posted}
}

// PostedCapable reports interrupt-posting support.
func (u *IOMMU) PostedCapable() bool { return u.posted }

// SetPostedCapable toggles interrupt posting, used by the Figure 8 ablation.
func (u *IOMMU) SetPostedCapable(p bool) { u.posted = p }

// CreateDomain makes (or returns) a named translation domain.
func (u *IOMMU) CreateDomain(name string) *Domain {
	if d, ok := u.domains[name]; ok {
		return d
	}
	d := &Domain{Name: name}
	d.Table = &d.table
	if u.domains == nil {
		u.domains = make(map[string]*Domain)
	}
	u.domains[name] = d
	return d
}

// Attach places a device into a domain; subsequent DMA from the device
// translates through the domain's table. A device may be in one domain only.
func (u *IOMMU) Attach(fn *pci.Function, d *Domain) error {
	if cur, ok := u.attach[fn.Addr]; ok && cur != d {
		return fmt.Errorf("iommu %s: device %s already attached to domain %s", u.name, fn.Name, cur.Name)
	}
	if u.attach == nil {
		u.attach = make(map[pci.Address]*Domain)
	}
	u.attach[fn.Addr] = d
	return nil
}

// Map installs a translation for the device's domain: DMA page iova → target
// page. This is the call a hypervisor makes while programming the (v)IOMMU
// for an assigned device (step 1 in the paper's Figure 3). An iova past a
// page table's reach (mem.TableFrames) is an error and installs nothing.
func (u *IOMMU) Map(d *Domain, iova, target mem.PFN, perms mem.Perm) error {
	return d.Table.Map(iova, target, perms)
}

// Unmap removes a translation.
func (u *IOMMU) Unmap(d *Domain, iova mem.PFN) bool {
	return d.Table.Unmap(iova)
}

// Translate resolves a DMA access from a device. It returns the translated
// address and the number of page-table levels the walk touched (the cost
// driver for software emulation of the unit).
func (u *IOMMU) Translate(fn *pci.Function, a mem.Addr, access mem.Perm) (mem.Addr, int, error) {
	d, ok := u.attach[fn.Addr]
	if !ok {
		return 0, 0, fmt.Errorf("iommu %s: DMA from unattached device %s blocked", u.name, fn.Name)
	}
	w := d.Table.Lookup(mem.PageOf(a))
	if !w.Present {
		return 0, w.LevelsTouched, fmt.Errorf("iommu %s: no mapping for %#x (device %s)", u.name, uint64(a), fn.Name)
	}
	if !w.Perms.Has(access) {
		return 0, w.LevelsTouched, fmt.Errorf("iommu %s: %s access to %#x denied", u.name, access, uint64(a))
	}
	return w.PFN.Base() + (a & (mem.PageSize - 1)), w.LevelsTouched, nil
}

// ProgramIRTE installs interrupt-remapping entry index as a remapped
// (non-posted) interrupt to a destination CPU.
func (u *IOMMU) ProgramIRTE(index int, vector apic.Vector, destCPU int) error {
	return u.program(index, irtEntry{valid: true, vector: vector, destCPU: destCPU})
}

// ProgramPostedIRTE installs entry index in posted format, targeting a
// posted-interrupt descriptor. It fails when the unit lacks the capability —
// the condition that forces the DVH-VP baseline onto the exit path.
func (u *IOMMU) ProgramPostedIRTE(index int, vector apic.Vector, pid *apic.PIDescriptor) error {
	if !u.posted {
		return fmt.Errorf("iommu %s: posted interrupts not supported", u.name)
	}
	return u.program(index, irtEntry{valid: true, posted: true, pid: pid, vector: vector})
}

// program installs entry index, growing the table to reach it.
func (u *IOMMU) program(index int, e irtEntry) error {
	if index < 0 || index >= irtSize {
		return fmt.Errorf("iommu %s: IRTE index %d out of range", u.name, index)
	}
	if index >= len(u.irt) {
		u.irt = append(u.irt, make([]irtEntry, index+1-len(u.irt))...)
	}
	u.irt[index] = e
	return nil
}

// Delivery describes how a device interrupt reached its target.
type Delivery struct {
	// Posted reports delivery via a posted-interrupt descriptor (no VM exit
	// on the receiving side).
	Posted bool
	// NotifyCPU is the physical CPU to send the notification to (posted), or
	// the destination CPU of a remapped interrupt.
	NotifyCPU int
	// Vector is the delivered vector.
	Vector apic.Vector
	// NeedNotify reports whether a physical notification interrupt is
	// required (false when coalesced into an outstanding one).
	NeedNotify bool
}

// DeliverMSI routes an MSI through remapping entry index, returning how it
// was delivered. For posted entries the vector lands in the PI descriptor;
// for remapped entries the caller must inject through the hypervisor.
func (u *IOMMU) DeliverMSI(index int) (Delivery, error) {
	if index < 0 || index >= len(u.irt) || !u.irt[index].valid {
		return Delivery{}, fmt.Errorf("iommu %s: MSI through invalid IRTE %d", u.name, index)
	}
	e := &u.irt[index]
	if e.posted {
		need := e.pid.Post(e.vector)
		return Delivery{Posted: true, NotifyCPU: e.pid.NDst(), Vector: e.vector, NeedNotify: need}, nil
	}
	return Delivery{Posted: false, NotifyCPU: e.destCPU, Vector: e.vector, NeedNotify: true}, nil
}
