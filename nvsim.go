// Package nvsim is the public API of the DVH reproduction: a deterministic
// nested-virtualization simulator implementing the system described in
// Lim & Nieh, "Optimizing Nested Virtualization Performance Using Direct
// Virtual Hardware" (ASPLOS 2020), together with everything it is evaluated
// against — the exit-forwarding hypervisor substrate, paravirtual and
// passthrough I/O baselines, the four DVH mechanisms, live migration, and
// the paper's workloads.
//
// The typical flow is: build a Stack for one of the paper's configurations,
// run a workload or microbenchmark against it, and read costs and exit
// accounting back:
//
//	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
//	...
//	res, err := nvsim.RunWorkload(st, "Netperf RR", 2000)
//	fmt.Printf("overhead vs native: %.2fx\n", res.Overhead)
//
// Lower-level control (assembling custom stacks, adding devices, toggling
// individual DVH features, driving migration) is available through the
// re-exported types; the internal packages they come from are the
// implementation:
//
//	internal/sim        deterministic discrete-event core
//	internal/vmx        VMCS / capability / exit-reason model (+ DVH bits)
//	internal/mem        guest memory, page tables, sparse bitmaps
//	internal/apic       LAPIC, timers, IPIs, posted interrupts
//	internal/pci        config space, SR-IOV, the DVH migration capability
//	internal/iommu      (virtual) IOMMUs with interrupt posting
//	internal/virtio     split virtqueues, virtio-net/blk
//	internal/machine    the physical platform
//	internal/hyper      the hypervisor substrate and exit multiplication
//	internal/core       DVH itself (the paper's contribution)
//	internal/xen        the Xen guest-hypervisor personality
//	internal/workload   Table 1 microbenchmarks and Table 2 applications
//	internal/migrate    pre-copy live migration
//	internal/experiment the table/figure harness
package nvsim

import (
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Re-exported configuration types: a Spec selects one of the paper's
// evaluation configurations and Build assembles it.
type (
	// Spec selects depth, I/O mode, guest hypervisor and DVH features.
	Spec = experiment.Spec
	// Stack is an assembled machine + hypervisor + VM chain.
	Stack = experiment.Stack
	// IOMode is the I/O configuration (paravirtual, passthrough, DVH-VP, DVH).
	IOMode = experiment.IOMode
	// GuestKind selects the guest hypervisor implementation.
	GuestKind = experiment.GuestKind
	// Features selects individual DVH mechanisms.
	Features = core.Features
	// Cycles is simulated CPU cycles (2.2 GHz platform clock).
	Cycles = sim.Cycles
)

// I/O modes, guest kinds and DVH feature sets, re-exported.
const (
	IOParavirt    = experiment.IOParavirt
	IOPassthrough = experiment.IOPassthrough
	IODVHVP       = experiment.IODVHVP
	IODVH         = experiment.IODVH

	GuestKVM    = experiment.GuestKVM
	GuestXen    = experiment.GuestXen
	GuestHyperV = experiment.GuestHyperV

	FeatureVirtualPassthrough     = core.FeatureVirtualPassthrough
	FeatureVIOMMUPostedInterrupts = core.FeatureVIOMMUPostedInterrupts
	FeatureVirtualIPIs            = core.FeatureVirtualIPIs
	FeatureVirtualTimers          = core.FeatureVirtualTimers
	FeatureVirtualIdle            = core.FeatureVirtualIdle
	FeatureDirectTimerDelivery    = core.FeatureDirectTimerDelivery
	FeaturesVP                    = core.FeaturesVP
	FeaturesAll                   = core.FeaturesAll
)

// Build assembles one evaluation configuration.
func Build(spec Spec) (*Stack, error) { return experiment.Build(spec) }

// Workload types, re-exported.
type (
	// Profile is a Table 2 application workload model.
	Profile = workload.Profile
	// Result is one workload run's outcome.
	Result = workload.Result
	// Micro identifies a Table 1 microbenchmark.
	Micro = workload.Micro
)

// Table 1 microbenchmarks, re-exported.
const (
	MicroHypercall    = workload.MicroHypercall
	MicroDevNotify    = workload.MicroDevNotify
	MicroProgramTimer = workload.MicroProgramTimer
	MicroSendIPI      = workload.MicroSendIPI
)

// Profiles returns the seven Table 2 application workloads.
func Profiles() []Profile { return workload.Profiles() }

// RunWorkload executes a named Table 2 workload on a stack's innermost VM
// for the given number of transactions.
func RunWorkload(st *Stack, name string, txns int) (Result, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return Result{}, &UnknownWorkloadError{Name: name}
	}
	r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
	return r.Run(txns)
}

// RunMicro executes a Table 1 microbenchmark on the stack's innermost VM and
// returns the average cost in cycles.
func RunMicro(st *Stack, m Micro, iters int) (Cycles, error) {
	return workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, iters)
}

// UnknownWorkloadError reports a workload name not in Table 2.
type UnknownWorkloadError struct{ Name string }

func (e *UnknownWorkloadError) Error() string {
	return "nvsim: unknown workload " + e.Name + " (see nvsim.Profiles)"
}

// Experiment results and regenerators for every table and figure.
type (
	// Table3Row is one microbenchmark row of Table 3.
	Table3Row = experiment.Table3Row
	// AppResult is one bar of Figures 7-10.
	AppResult = experiment.AppResult
	// MigrationRow is one configuration of the migration comparison.
	MigrationRow = experiment.MigrationRow
)

// Table3 regenerates the paper's Table 3.
func Table3() ([]Table3Row, error) { return experiment.Table3() }

// Figure7 regenerates application overhead at two virtualization levels.
func Figure7() ([]AppResult, error) { return experiment.Figure7() }

// Figure8 regenerates the DVH technique breakdown.
func Figure8() ([]AppResult, error) { return experiment.Figure8() }

// Figure9 regenerates application overhead at three virtualization levels.
func Figure9() ([]AppResult, error) { return experiment.Figure9() }

// Figure10 regenerates the Xen-on-KVM comparison.
func Figure10() ([]AppResult, error) { return experiment.Figure10() }

// MigrationExperiment regenerates the Section 4 migration comparison.
func MigrationExperiment() ([]MigrationRow, error) { return experiment.Migration() }

// Formatting helpers for the regenerated results.
var (
	FormatTable3     = experiment.FormatTable3
	FormatAppResults = experiment.FormatAppResults
	FormatMigration  = experiment.FormatMigration
	OverheadOf       = experiment.OverheadOf
)

// Migration types for custom migration experiments.
type (
	// MigrationPlan describes one live migration.
	MigrationPlan = migrate.Plan
	// MigrationReport summarizes it.
	MigrationReport = migrate.Report
	// Churn models the workload dirtying memory during migration.
	Churn = migrate.Churn
	// MigrationOptions tunes bandwidth and downtime.
	MigrationOptions = migrate.Options
)

// DefaultMigrationBandwidth is QEMU's default 268 Mbps transfer limit.
const DefaultMigrationBandwidth = migrate.DefaultBandwidth

// Snapshot and RestoreSnapshot implement suspend/resume: the VM's memory
// image and DVH virtual-hardware state serialize to a byte stream the host
// can bring back later — an I/O-interposition benefit device passthrough
// forfeits.
var (
	Snapshot        = migrate.Snapshot
	RestoreSnapshot = migrate.RestoreSnapshot
)

// Low-level types for custom stacks.
type (
	// World is the execution engine over a host hypervisor.
	World = hyper.World
	// VM is a virtual machine at any nesting level.
	VM = hyper.VM
	// VCPU is a virtual CPU.
	VCPU = hyper.VCPU
	// DVH is the host-side Direct Virtual Hardware layer.
	DVH = core.DVH
	// Op is one guest hardware operation.
	Op = hyper.Op
)

// Guest operations for driving VMs directly.
var (
	Hypercall    = hyper.Hypercall
	DevNotify    = hyper.DevNotify
	ProgramTimer = hyper.ProgramTimer
	SendIPI      = hyper.SendIPI
	Halt         = hyper.Halt
	EOI          = hyper.EOI
	MemTouch     = hyper.MemTouch
)
