package hyper

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/iommu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/vmx"
)

// Hypervisor is one hypervisor in the nesting stack. Level 0 runs on the
// physical machine; a hypervisor at level k runs inside a VM at level k and
// manages VMs at level k+1.
type Hypervisor struct {
	Name        string
	Level       int
	Personality Personality
	Machine     *machine.Machine
	// Caps is what this hypervisor discovers beneath it: hardware features
	// for L0, whatever its host exposes (possibly including DVH virtual
	// hardware) for guest hypervisors.
	Caps vmx.Caps
	// HostVM is the VM this hypervisor runs in (nil at level 0).
	HostVM *VM
	// Guests are the VMs it manages.
	Guests []*VM

	carveNext mem.PFN // next free frame in this hypervisor's own memory
	sched     *Scheduler
}

// NewHost creates the L0 hypervisor on a machine.
func NewHost(m *machine.Machine, p Personality) *Hypervisor {
	return &Hypervisor{
		Name:        p.Name() + "-L0",
		Personality: p,
		Machine:     m,
		Caps:        m.Caps,
		carveNext:   1, // leave frame 0 unused
	}
}

// carve reserves n contiguous frames of this hypervisor's memory. For a
// guest hypervisor the reservation comes from its host VM's single page
// allocator, so VM memory never aliases the pages that VM hands out for its
// own structures (rings, mapping tables).
func (h *Hypervisor) carve(n mem.PFN) (mem.PFN, error) {
	if h.HostVM != nil {
		base := h.HostVM.allocNext
		if base+n > h.HostVM.NumPages {
			return 0, fmt.Errorf("hyper: %s out of memory carving %d pages from %s", h.Name, n, h.HostVM.Name)
		}
		h.HostVM.allocNext += n
		return base, nil
	}
	if h.carveNext+n > h.Machine.Memory.NumPages() {
		return 0, fmt.Errorf("hyper: %s out of host memory carving %d pages", h.Name, n)
	}
	base := h.carveNext
	h.carveNext += n
	return base, nil
}

// VMConfig sizes a virtual machine. Its vCPU i is pinned to CPU i of the
// level below — the physical CPU for an L1 VM, the parent VM's vCPU for a
// deeper one — following the paper's pinned measurement setup.
type VMConfig struct {
	Name     string
	VCPUs    int
	MemBytes uint64
}

// VM is a virtual machine at some nesting level.
type VM struct {
	Name  string
	Level int
	Owner *Hypervisor
	// stack is the hypervisor at each level beneath the VM, the chain an
	// exit from it is reflected through (paper Figure 1a): stack[0] is the
	// host and stack[Level-1] is Owner. CreateVM builds it from Owner's own
	// VM's stack, and it never changes.
	stack []*Hypervisor
	// Caps is the virtualization capability word Owner exposes inside.
	Caps vmx.Caps

	NumPages   mem.PFN
	parentBase mem.PFN        // where this VM's memory sits in Owner's memory
	EPT        *mem.PageTable // GPA frame → owner-level frame (lazily filled)

	VCPUs   []*VCPU
	Bus     *pci.Bus
	Devices []*AssignedDevice
	// VIOMMU is the virtual IOMMU Owner exposes, when configured (required
	// for any passthrough out of this VM).
	VIOMMU *iommu.IOMMU
	// GuestHyp is the hypervisor running inside, if any.
	GuestHyp *Hypervisor

	dirty   *mem.Bitmap // non-nil while dirty logging
	written mem.Bitmap

	allocNext mem.PFN  // guest-page allocator for drivers/workloads
	mmioNext  mem.Addr // doorbell window allocator

	// ept, bus and memory are what EPT, Bus and Memory() point at, and
	// devices backs Devices up to the two devices an I/O mode attaches:
	// all allocated with the VM.
	ept     mem.PageTable
	bus     pci.Bus
	memory  GuestMemory
	devices [2]*AssignedDevice
}

// VCPU is one virtual CPU.
type VCPU struct {
	VM *VM
	ID int
	// LAPIC is the vCPU's local APIC (virtualized by APICv).
	LAPIC *apic.LAPIC
	// PID is the posted-interrupt descriptor the running hypervisor
	// maintains for this vCPU.
	PID *apic.PIDescriptor
	// VMCS is the control structure Owner maintains to run this vCPU.
	VMCS *vmx.VMCS
	// Parent is the vCPU of the owner's VM this vCPU is scheduled on (nil
	// when the owner is L0).
	Parent *VCPU
	// PhysCPU is the physical CPU the whole ancestry is pinned to, following
	// the paper's pinned measurement setup.
	PhysCPU int
	// Idle marks a vCPU blocked in HLT.
	Idle bool
}

// vcpuBlock holds a VCPU with the LAPIC, posted-interrupt descriptor and
// VMCS it points at, so CreateVM allocates a VM's vCPUs in one block.
type vcpuBlock struct {
	VCPU
	lapic apic.LAPIC
	pid   apic.PIDescriptor
	vmcs  vmx.VMCS
}

// CreateVM builds a VM under this hypervisor.
func (h *Hypervisor) CreateVM(cfg VMConfig) (*VM, error) {
	if cfg.VCPUs <= 0 {
		return nil, fmt.Errorf("hyper: VM %q needs at least one vCPU", cfg.Name)
	}
	below := len(h.Machine.CPUs)
	if h.HostVM != nil {
		below = len(h.HostVM.VCPUs)
	}
	if cfg.VCPUs > below {
		return nil, fmt.Errorf("hyper: VM %q has %d vCPUs but the level below has %d CPUs to pin them to", cfg.Name, cfg.VCPUs, below)
	}
	pages := mem.PFN((cfg.MemBytes + mem.PageSize - 1) / mem.PageSize)
	base, err := h.carve(pages)
	if err != nil {
		return nil, err
	}
	vm := &VM{
		Name:       cfg.Name,
		Level:      h.Level + 1,
		Owner:      h,
		Caps:       h.grantCaps(),
		NumPages:   pages,
		parentBase: base,
		written:    *mem.NewBitmap(uint64(pages)),
		allocNext:  16, // leave a low region for firmware-ish structures
		mmioNext:   0xf000_0000,
	}
	vm.EPT, vm.Bus, vm.memory.vm, vm.Devices = &vm.ept, &vm.bus, vm, vm.devices[:0]
	vm.stack = make([]*Hypervisor, vm.Level)
	vm.stack[h.Level] = h
	if h.HostVM != nil {
		copy(vm.stack, h.HostVM.stack)
	}
	blocks := make([]vcpuBlock, cfg.VCPUs)
	vm.VCPUs = make([]*VCPU, cfg.VCPUs)
	for i := range blocks {
		b := &blocks[i]
		v := &b.VCPU
		v.VM, v.ID = vm, i
		if h.HostVM != nil {
			v.Parent = h.HostVM.VCPUs[i]
			v.PhysCPU = v.Parent.PhysCPU
		} else {
			v.PhysCPU = i
		}
		b.lapic = *apic.NewLAPIC()
		b.pid = *apic.NewPIDescriptor(v.PhysCPU)
		v.LAPIC, v.PID, v.VMCS = &b.lapic, &b.pid, &b.vmcs
		h.initVMCS(v)
		vm.VCPUs[i] = v
	}
	h.Guests = append(h.Guests, vm)
	return vm, nil
}

// initVMCS sets the baseline execution controls a KVM-style hypervisor uses.
func (h *Hypervisor) initVMCS(v *VCPU) {
	c := v.VMCS
	c.SetControl(vmx.FieldPinBasedControls, vmx.PinExternalInterruptExiting|vmx.PinNMIExiting)
	c.SetControl(vmx.FieldProcBasedControls,
		vmx.ProcHLTExiting|vmx.ProcUseTSCOffsetting|vmx.ProcUseMSRBitmaps|vmx.ProcActivateSecondary)
	sec := vmx.Proc2EnableEPT
	if h.Caps.Has(vmx.CapAPICv) {
		sec |= vmx.Proc2APICRegisterVirt | vmx.Proc2VirtualIntrDelivery
	}
	if h.Caps.Has(vmx.CapPostedInterrupts) {
		c.SetControl(vmx.FieldPinBasedControls, vmx.PinProcessPostedInterrupts)
	}
	c.SetControl(vmx.FieldProcBasedControls2, sec)
	c.Load()
}

// grantCaps computes what a freshly created VM sees: the virtualization
// features the owner can virtualize for it. Platform device features (IOMMU,
// SR-IOV) are *not* passed through by default — they appear only when the
// owner explicitly provides a vIOMMU or assigns a VF. DVH capability bits are
// added by the DVH layer (package core), not here.
func (h *Hypervisor) grantCaps() vmx.Caps {
	return h.Caps.Without(vmx.CapIOMMU | vmx.CapIOMMUPostedInterrupts | vmx.CapSRIOV |
		vmx.CapVirtualTimer | vmx.CapVirtualIPI)
}

// InstallHypervisor places a guest hypervisor inside the VM. The VM's vCPUs
// become the new hypervisor's CPUs; with VMCS shadowing available at L0, the
// host links shadow VMCS structures so this (level-1) hypervisor's
// VMREAD/VMWRITEs do not exit.
func (vm *VM) InstallHypervisor(p Personality, name string) *Hypervisor {
	gh := &Hypervisor{
		Name:        name,
		Level:       vm.Level,
		Personality: p,
		Machine:     vm.Owner.Machine,
		Caps:        vm.Caps,
		HostVM:      vm,
		carveNext:   1,
	}
	vm.GuestHyp = gh
	if vm.Level == 1 && vm.Owner.Caps.Has(vmx.CapVMCSShadowing) {
		for _, v := range vm.VCPUs {
			v.VMCS.LinkShadow(true)
		}
	}
	return gh
}

// ProvideVIOMMU exposes a virtual IOMMU inside the VM. posted selects
// whether the vIOMMU advertises interrupt posting (the paper's full DVH
// configuration adds this; plain DVH-VP runs without it).
func (vm *VM) ProvideVIOMMU(posted bool) *iommu.IOMMU {
	vm.VIOMMU = iommu.New(vm.Name+"/viommu", posted)
	vm.Caps = vm.Caps.With(vmx.CapIOMMU)
	if posted {
		vm.Caps = vm.Caps.With(vmx.CapIOMMUPostedInterrupts)
	}
	if vm.GuestHyp != nil {
		vm.GuestHyp.Caps = vm.Caps
	}
	// Capability words shape compiled plans; like SetHostCaps, a
	// post-setup vIOMMU grant must move PlanGen or a cached plan would
	// replay the pre-vIOMMU exit tree.
	vm.Owner.Machine.PlanGen++
	return vm.VIOMMU
}

// AllocPages reserves n guest pages for drivers and workloads, returning the
// base address. Exhaustion is an error, not a panic: how much a driver or
// workload asks for is caller input, not an internal invariant.
func (vm *VM) AllocPages(n int) (mem.Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("hyper: VM %s negative page allocation %d", vm.Name, n)
	}
	if vm.allocNext+mem.PFN(n) > vm.NumPages {
		return 0, fmt.Errorf("hyper: VM %s guest allocator exhausted: %d pages requested, %d free",
			vm.Name, n, uint64(vm.NumPages-vm.allocNext))
	}
	base := vm.allocNext
	vm.allocNext += mem.PFN(n)
	return base.Base(), nil
}

// MustAllocPages is AllocPages for callers with statically known-good sizes.
func (vm *VM) MustAllocPages(n int) mem.Addr {
	base, err := vm.AllocPages(n)
	if err != nil {
		//nvlint:ignore nopanic documented Must helper; callers assert statically known-good sizes
		panic(err)
	}
	return base
}

// AllocMMIO reserves a doorbell window in guest physical space, outside RAM.
func (vm *VM) AllocMMIO(size int) mem.Addr {
	base := vm.mmioNext
	vm.mmioNext += mem.Addr((size + mem.PageSize - 1) &^ (mem.PageSize - 1))
	return base
}

// EnsureMapped installs the EPT translation for a guest frame (identity plus
// the VM's carve base), the lazy fault-in a hypervisor performs, and returns
// the frame it maps to.
func (vm *VM) EnsureMapped(p mem.PFN) (mem.PFN, error) {
	f, _, err := vm.ensureRun(p, 1, 0)
	return f, err
}

// ensureRun faults in this VM's EPT for guest frames [p, p+n), stamping the
// hardware A/D bits for the access kind like a real walk would, and returns
// the frame p maps to and how many of the frames, at least one, map on from
// it consecutively. A run stops early at an entry that maps elsewhere; when
// p's own entry does, ensureRun follows it for one page. The caller keeps
// the run inside the VM's RAM (holds), so only p is checked.
func (vm *VM) ensureRun(p mem.PFN, n int, access mem.Perm) (mem.PFN, int, error) {
	if p >= vm.NumPages {
		return 0, 0, fmt.Errorf("hyper: VM %s access beyond RAM: frame %#x", vm.Name, uint64(p))
	}
	if n == 1 {
		// One present page: Lookup, the hardware walk, stamps and follows
		// it as the run would, for less.
		if w := vm.EPT.Lookup(p, access); w.Present {
			return w.PFN, 1, nil
		}
	}
	target := vm.parentBase + p
	k, err := vm.EPT.EnsureRun(p, target, n, mem.PermRWX, access)
	if err != nil {
		return 0, 0, err
	}
	if k == 0 {
		return vm.EPT.Lookup(p, access).PFN, 1, nil
	}
	return target, k, nil
}

// translateRun resolves guest frames [p, p+n) down the whole nesting chain
// to machine frames, faulting mappings in and stamping A/D bits along the
// way, one EPT run per level. It returns p's machine frame and how many of
// the frames, at least one, map to consecutive machine frames from it. It
// leaves every level exactly as translating those frames one page at a time
// would. The run is first clipped to the frames every level holds, so a
// frame beyond some level's RAM fails alone, after the frames before it
// translated and with no level touching a frame past it.
func (vm *VM) translateRun(p mem.PFN, n int, access mem.Perm) (mem.PFN, int, error) {
	if n > 1 {
		n = vm.holds(p, n)
	}
	for cur := vm; ; cur = cur.Owner.HostVM {
		f, k, err := cur.ensureRun(p, n, access)
		if err != nil {
			return 0, 0, err
		}
		if cur.Owner.HostVM == nil {
			return f, k, nil
		}
		p, n = f, k
	}
}

// holds returns how many of guest frames [p, p+n) every level of the chain
// holds, translating identically, or 1 when p itself falls outside one, so
// that the walk fails on it alone.
func (vm *VM) holds(p mem.PFN, n int) int {
	for cur := vm; cur != nil; cur = cur.Owner.HostVM {
		end := min(cur.NumPages, mem.TableFrames)
		if p >= end {
			return 1
		}
		n = int(min(mem.PFN(n), end-p))
		p += cur.parentBase
	}
	return n
}

// Memory returns a byte-addressable view of the VM's guest-physical memory,
// backed (through the EPT chain) by machine memory, with per-level dirty
// tracking on writes. Every call returns the same view.
func (vm *VM) Memory() *GuestMemory { return &vm.memory }

// StartDirtyLog begins recording written guest frames (pre-copy migration).
func (vm *VM) StartDirtyLog() { vm.dirty = mem.NewBitmap(uint64(vm.NumPages)) }

// StopDirtyLog ends recording.
func (vm *VM) StopDirtyLog() { vm.dirty = nil }

// DirtyLog returns the guest frames written since dirty logging started
// or the log was last reset, nil while not logging. Callers may reset the
// log, as a pre-copy round does after sending its pages, but must not
// change the written set (WrittenSet).
func (vm *VM) DirtyLog() *mem.Bitmap { return vm.dirty }

// WrittenSet returns every guest frame ever written: a migration's first
// pass sends these pages. Callers must not change it; it only grows, and
// it must agree with the EPT dirty bits (the invariant sweep checks this).
func (vm *VM) WrittenSet() *mem.Bitmap { return &vm.written }

// markRun records writes to guest frames [p, p+n) for dirty tracking at this
// level and every level below (an L2 write dirties the containing L1 pages
// too), one range per bitmap.
func (vm *VM) markRun(p mem.PFN, n int) {
	for cur := vm; cur != nil; cur = cur.Owner.HostVM {
		cur.written.SetRange(uint64(p), uint64(n))
		if cur.dirty != nil {
			cur.dirty.SetRange(uint64(p), uint64(n))
		}
		p += cur.parentBase
	}
}

// GuestMemory adapts a VM's guest-physical space to the virtio DMA
// interface. All bytes live in machine memory; reads and writes translate
// through the EPT chain, and writes update every level's dirty bookkeeping.
type GuestMemory struct {
	vm *VM
}

// Read copies bytes out of guest memory.
func (g *GuestMemory) Read(a mem.Addr, buf []byte) error {
	//nvlint:ignore hotalloc closure is called directly by chunked and does not escape (stack-allocated)
	return g.chunked(a, len(buf), mem.PermRead, func(host mem.Addr, off, n int) error {
		return g.vm.Owner.Machine.Memory.Read(host, buf[off:off+n])
	})
}

// Write copies bytes into guest memory, marking dirty pages at every level.
func (g *GuestMemory) Write(a mem.Addr, buf []byte) error {
	return g.chunked(a, len(buf), mem.PermWrite, func(host mem.Addr, off, n int) error {
		first := mem.PageOf(a + mem.Addr(off))
		g.vm.markRun(first, int(mem.PageOf(a+mem.Addr(off+n-1))-first)+1)
		return g.vm.Owner.Machine.Memory.Write(host, buf[off:off+n])
	})
}

// WritePageQuads writes val(i), little-endian, over the first quadword of
// guest frame p+i for each i in [0, n), in ascending order, leaving both
// chains exactly as n WriteU64 calls at those frame bases would: one
// translation and one dirty mark per run of frames, and no allocation per
// page.
func (g *GuestMemory) WritePageQuads(p mem.PFN, n int, val func(i int) uint64) error {
	host := g.vm.Owner.Machine.Memory
	for done := 0; done < n; {
		h, k, err := g.vm.translateRun(p, n-done, mem.PermWrite)
		if err != nil {
			return err
		}
		g.vm.markRun(p, k)
		if err := host.WriteQuads(h, k, func(i int) uint64 { return val(done + i) }); err != nil {
			return err
		}
		p, done = p+mem.PFN(k), done+k
	}
	return nil
}

// CopyPagesTo copies the guest frames in pages, in ascending order, from g
// over the same guest frames of dst: the unit of migration transfer. It
// translates, stamps EPT A/D bits and records written and dirty frames at
// every level of both chains exactly as a whole-page Read from g followed
// by a full-page Write to dst does for each page, but moves only the
// source frames' written extents, and it walks each run of consecutive
// pages down both chains once, read straight from the bitmap. dst must not
// run on g's VM, whose written set and dirty log the copy would then grow
// while reading them.
func (g *GuestMemory) CopyPagesTo(dst *GuestMemory, pages *mem.Bitmap) error {
	from, to := g.vm.Owner.Machine.Memory, dst.vm.Owner.Machine.Memory
	return pages.ForEachRun(func(p mem.PFN, n int) error {
		for n > 0 {
			hs, hd, k, err := translatePair(g.vm, mem.PermRead, dst.vm, mem.PermWrite, p, n)
			if err != nil {
				return err
			}
			dst.vm.markRun(p, k)
			if err := mem.CopyFrames(to, hd, from, hs, k); err != nil {
				return err
			}
			p, n = p+mem.PFN(k), n-k
		}
		return nil
	})
}

// DiffWritten returns the guest frames g's VM has ever written, in
// ascending order, whose bytes differ between g and other, or nil when none
// do. It reads the written set in runs, with no page list, and translates
// both chains as a Read of each whole page would, one walk per run.
func (g *GuestMemory) DiffWritten(other *GuestMemory) ([]mem.PFN, error) {
	am, bm := g.vm.Owner.Machine.Memory, other.vm.Owner.Machine.Memory
	var diff []mem.PFN
	err := g.vm.written.ForEachRun(func(p mem.PFN, n int) error {
		for n > 0 {
			ha, hb, k, err := translatePair(g.vm, mem.PermRead, other.vm, mem.PermRead, p, n)
			if err != nil {
				return err
			}
			same, err := mem.EqualFrames(am, ha, bm, hb, k)
			if err != nil {
				return err
			}
			if same < k {
				diff = append(diff, p+mem.PFN(same))
				k = same + 1
			}
			p, n = p+mem.PFN(k), n-k
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return diff, nil
}

// translatePair translates guest frames [p, p+n) down x's chain with access
// ax, then down y's with ay, and returns p's machine frame in each and how
// many of the frames, at least one, map consecutively in both. It clips the
// run to what y's chain holds first, so a frame y cannot hold fails alone
// and x translates no frame past it.
func translatePair(x *VM, ax mem.Perm, y *VM, ay mem.Perm, p mem.PFN, n int) (hx, hy mem.PFN, k int, err error) {
	if hx, k, err = x.translateRun(p, y.holds(p, n), ax); err == nil {
		hy, k, err = y.translateRun(p, k, ay)
	}
	return hx, hy, k, err
}

// chunked walks [a, a+n) in runs of guest pages that map to consecutive
// machine pages, translating each run with the access kind so EPT A/D bits
// at every level record it, and hands fn each run's bytes.
func (g *GuestMemory) chunked(a mem.Addr, n int, access mem.Perm, fn func(host mem.Addr, off, n int) error) error {
	off := 0
	for n > 0 {
		p, in := mem.PageOf(a), int(a&(mem.PageSize-1))
		h, k, err := g.vm.translateRun(p, (in+n+mem.PageSize-1)/mem.PageSize, access)
		if err != nil {
			return err
		}
		step := min(n, k*mem.PageSize-in)
		if err := fn(h.Base()+mem.Addr(in), off, step); err != nil {
			return err
		}
		a += mem.Addr(step)
		off += step
		n -= step
	}
	return nil
}

// ReadU64 reads a little-endian quadword from guest memory.
func (g *GuestMemory) ReadU64(a mem.Addr) (uint64, error) {
	var b [8]byte
	if err := g.Read(a, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteU64 writes a little-endian quadword into guest memory.
func (g *GuestMemory) WriteU64(a mem.Addr, v uint64) error {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return g.Write(a, b[:])
}

// AncestorAt returns the vCPU in this vCPU's scheduling ancestry whose VM is
// at the given level (level must be between 1 and the vCPU's own level).
func (v *VCPU) AncestorAt(level int) (*VCPU, error) {
	cur := v
	for cur != nil {
		if cur.VM.Level == level {
			return cur, nil
		}
		cur = cur.Parent
	}
	return nil, fmt.Errorf("hyper: no ancestor of %s/vcpu%d at level %d", v.VM.Name, v.ID, level)
}

// Path renders the nesting ancestry for diagnostics. It allocates freely and
// is only ever called to label an error that aborts the operation anyway.
func (v *VCPU) Path() string {
	s := fmt.Sprintf("%s/vcpu%d", v.VM.Name, v.ID)
	if v.Parent != nil {
		return v.Parent.Path() + "->" + s
	}
	return fmt.Sprintf("pcpu%d->%s", v.PhysCPU, s)
}
