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

	// PlanGen counts writes to the inputs compiled plans bake in: the cost
	// model (World.SetCosts) and capability words after setup
	// (World.SetHostCaps, VM.ProvideVIOMMU). A World's plan table is valid
	// for one generation and flushes when it moves; direct field pokes
	// bypass that contract and are reserved for setup before the first exit.
	// Personalities, the one other plan input, are pinned per plan instead.
	PlanGen uint64

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
