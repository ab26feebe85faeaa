// Package machine assembles the physical platform the simulation runs on:
// CPUs with local APICs, host physical memory, the PCI bus with an SR-IOV
// capable NIC and an SSD, a VT-d style IOMMU, and the stats sink everything
// shares. The simulated timeline belongs to the hyper.World that runs on the
// machine. The default topology mirrors the paper's CloudLab c220g-class
// servers (Xeon Silver 4114, 10 GbE X520, SATA SSD).
package machine

import (
	"fmt"

	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/trace"
	"repro/internal/vmx"

	"repro/internal/apic"
)

// PCPU is one physical CPU.
type PCPU struct {
	ID    int
	LAPIC *apic.LAPIC
}

// pcpuBlock holds a PCPU with the LAPIC it points at, so New allocates a
// machine's CPUs in one block.
type pcpuBlock struct {
	PCPU
	lapic apic.LAPIC
}

// NIC is the physical network adapter: a PCI function with SR-IOV.
type NIC struct {
	Fn *pci.Function
	// TxFrames/RxFrames count frames crossing the wire.
	TxFrames, RxFrames uint64
}

// SSD is the physical storage device.
type SSD struct {
	Fn      *pci.Function
	Backing *mem.AddressSpace
}

// Config sizes a machine.
type Config struct {
	// Name labels the machine in reports.
	Name string
	// CPUs is the physical core count (paper: 20 cores across two sockets,
	// hyperthreading disabled; experiments pin at most 10).
	CPUs int
	// MemoryBytes is host RAM (paper: 192 GB; the simulator allocates
	// sparsely so the full size is cheap).
	MemoryBytes uint64
	// Caps advertises platform virtualization features.
	Caps vmx.Caps
	// NICVFs is the number of SR-IOV virtual functions to provision.
	NICVFs int
}

// Machine is the assembled platform. Its cores run at sim.DefaultClockHz.
type Machine struct {
	Name  string
	Stats *trace.Stats
	Caps  vmx.Caps

	CPUs   []*PCPU
	Memory *mem.AddressSpace
	Bus    *pci.Bus
	IOMMU  *iommu.IOMMU
	NIC    *NIC
	SSD    *SSD

	// TopoGen counts VM-topology mutations on this machine (VM creation,
	// hypervisor installation). Per-vCPU caches derived from the nesting
	// topology — the hypervisor stack the exit path walks — carry the
	// generation they were built at and rebuild when it moves, which keeps
	// the steady-state exit path allocation-free.
	TopoGen uint64
	// CostGen counts cost-model mutations (World.SetCosts). Compiled forward
	// plans bake calibrated cycle costs in, so any recalibration must move
	// this generation; direct field pokes on a World's CostModel bypass the
	// cache contract and are reserved for setup before the first exit.
	CostGen uint64
	// CapsGen counts capability-word mutations after setup (DVH enablement
	// advertising virtual-hardware bits, vIOMMU provisioning, tests toggling
	// VMCS shadowing). Plans depend on host capabilities, so mutating a caps
	// word without moving this generation leaves stale compiled plans behind.
	CapsGen uint64

	// bus, nic and ssd are what Bus, NIC and SSD point at, allocated with
	// the machine.
	bus pci.Bus
	nic NIC
	ssd SSD
}

// New assembles a machine from the config.
func New(cfg Config) (*Machine, error) {
	if cfg.CPUs <= 0 {
		return nil, fmt.Errorf("machine: need at least one CPU")
	}
	m := &Machine{
		Name:   cfg.Name,
		Stats:  &trace.Stats{},
		Caps:   cfg.Caps,
		Memory: mem.NewAddressSpace(cfg.Name+"/ram", cfg.MemoryBytes),
	}
	m.Bus = &m.bus
	blocks := make([]pcpuBlock, cfg.CPUs)
	m.CPUs = make([]*PCPU, cfg.CPUs)
	for i := range blocks {
		b := &blocks[i]
		b.lapic = *apic.NewLAPIC()
		b.PCPU = PCPU{ID: i, LAPIC: &b.lapic}
		m.CPUs[i] = &b.PCPU
	}
	if cfg.Caps.Has(vmx.CapIOMMU) {
		m.IOMMU = iommu.New(cfg.Name+"/vtd0", cfg.Caps.Has(vmx.CapIOMMUPostedInterrupts))
	}

	// Physical 10 GbE NIC (Intel X520-DA2) with SR-IOV.
	nicFn := pci.NewFunction("x520", pci.Address{Bus: 0, Device: 3}, 0x8086, 0x10fb, 0x020000)
	if err := m.Bus.Add(nicFn); err != nil {
		return nil, err
	}
	m.nic.Fn = nicFn
	m.NIC = &m.nic
	if cfg.Caps.Has(vmx.CapSRIOV) && cfg.NICVFs > 0 {
		if err := pci.EnableSRIOV(nicFn, uint16(cfg.NICVFs)); err != nil {
			return nil, err
		}
	}

	// SATA SSD (Intel DC S3500 480GB).
	ssdFn := pci.NewFunction("s3500", pci.Address{Bus: 0, Device: 4}, 0x8086, 0x0740, 0x010000)
	if err := m.Bus.Add(ssdFn); err != nil {
		return nil, err
	}
	m.ssd = SSD{
		Fn:      ssdFn,
		Backing: mem.NewAddressSpace(cfg.Name+"/ssd", 480<<30),
	}
	m.SSD = &m.ssd
	return m, nil
}

// MustNew is New for tests and examples with known-good configs.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		//nvlint:ignore nopanic documented Must helper; callers assert known-good configs
		panic(err)
	}
	return m
}

// CreateVFs provisions n SR-IOV virtual functions on the physical NIC.
func (m *Machine) CreateVFs(n int) ([]*pci.Function, error) {
	return pci.CreateVFs(m.Bus, m.NIC.Fn, n)
}
