package core

import (
	"fmt"

	"repro/internal/hyper"
	"repro/internal/mem"
	"repro/internal/vmx"
)

// pageOf forwards to mem.PageOf; kept local so dvh.go reads naturally.
func pageOf(a mem.Addr) mem.PFN { return mem.PageOf(a) }

// VCIMT is the virtual CPU interrupt mapping table of Section 3.3: a per-VM
// structure in guest-hypervisor memory mapping each of the nested VM's
// virtual CPUs to the posted-interrupt descriptor (and thus physical CPU)
// that can receive its IPIs. The guest hypervisor publishes the table's base
// address through the VCIMTAR; the host reads entries directly from guest
// memory on every virtual-IPI send.
type VCIMT struct {
	// VM is the nested VM the table describes.
	VM *hyper.VM
	// holder is the level-1 VM whose memory physically holds the table
	// (under recursive DVH, intermediate hypervisors translate their tables
	// down until the L1 hypervisor programs the combined one).
	holder *hyper.VM
	// Base is the table's guest-physical base address in holder's memory.
	Base mem.Addr

	dvh *DVH
	// registry resolves the descriptor handles stored in the table. Handle
	// value h refers to registry[h-1]; zero marks an invalid entry.
	registry []*hyper.VCPU
}

// buildVCIMT allocates the table in the L1 VM's memory, fills one entry per
// nested vCPU, publishes the base via VCIMTAR, and registers the table.
func (d *DVH) buildVCIMT(vm *hyper.VM) (*VCIMT, error) {
	holder, err := vm.VCPUs[0].AncestorAt(1)
	if err != nil {
		return nil, err
	}
	t := &VCIMT{VM: vm, holder: holder.VM, dvh: d, registry: make([]*hyper.VCPU, 0, len(vm.VCPUs))}
	bytes := len(vm.VCPUs) * 8
	pages := (bytes + mem.PageSize - 1) / mem.PageSize
	t.Base, err = t.holder.AllocPages(pages)
	if err != nil {
		return nil, err
	}

	gm := t.holder.Memory()
	for i, v := range vm.VCPUs {
		t.registry = append(t.registry, v)
		handle := uint64(len(t.registry)) // 1-based; 0 is invalid
		if err := gm.WriteU64(t.Base+mem.Addr(i*8), handle); err != nil {
			return nil, fmt.Errorf("dvh: writing VCIMT entry %d: %w", i, err)
		}
	}
	for _, v := range vm.VCPUs {
		v.VMCS.Write(vmx.FieldVCIMTAR, uint64(t.Base))
	}
	d.vcimts[vm] = t
	return t, nil
}

// Lookup resolves a destination vCPU number through the in-memory table, the
// read the host performs while emulating a virtual-IPI send. The read
// cannot fail: buildVCIMT wrote every entry through the same EPT chain, and
// no EPT mapping is ever removed. What the guest can break is an entry's
// contents.
func (t *VCIMT) Lookup(dest int) (*hyper.VCPU, error) {
	if dest < 0 || dest >= len(t.VM.VCPUs) {
		return nil, fmt.Errorf("dvh: VCIMT lookup for out-of-range vCPU %d in %s", dest, t.VM.Name)
	}
	handle, _ := t.holder.Memory().ReadU64(t.Base + mem.Addr(dest*8))
	if handle == 0 || int(handle) > len(t.registry) {
		return nil, fmt.Errorf("dvh: VCIMT entry %d holds invalid handle %d", dest, handle)
	}
	return t.registry[handle-1], nil
}
