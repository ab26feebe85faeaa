// Package core implements DVH (Direct Virtual Hardware), the contribution of
// Lim & Nieh, "Optimizing Nested Virtualization Performance Using Direct
// Virtual Hardware" (ASPLOS 2020): the host hypervisor provides virtual
// hardware *directly to nested VMs*, so their hardware accesses are handled
// entirely at the host instead of being forwarded through every intervening
// guest hypervisor.
//
// Four mechanisms are implemented, matching the paper's Sections 3.1-3.4:
//
//   - virtual-passthrough: the host's virtio devices, being PCI-conformant,
//     are assigned through the guest hypervisors' passthrough frameworks to
//     the nested VM; a chain of virtual IOMMUs supplies the address mappings
//     the host folds into one combined shadow table (Figure 6);
//   - virtual timers: a per-vCPU software LAPIC timer advertised to guest
//     hypervisors as a hardware capability, with TSC-offset chaining;
//   - virtual IPIs: a virtual ICR plus the per-VM virtual-CPU interrupt
//     mapping table (VCIMT) whose base address guest hypervisors publish
//     through the VCIMTAR, letting the host post nested IPIs directly;
//   - virtual idle: guest hypervisors stop trapping HLT, so only the host
//     interposes on nested idle transitions.
//
// Recursive DVH (Section 3.5) and migration support (Section 3.6) are
// implemented on top.
package core

import (
	"fmt"
	"sort"

	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// Features selects which DVH mechanisms are active, mirroring the paper's
// Figure 8 ablation order.
type Features uint32

const (
	// FeatureVirtualPassthrough is DVH-VP: host virtio devices assigned
	// directly to nested VMs.
	FeatureVirtualPassthrough Features = 1 << iota
	// FeatureVIOMMUPostedInterrupts adds posted-interrupt support to the
	// virtual IOMMU so VP completion interrupts skip the guest hypervisor.
	FeatureVIOMMUPostedInterrupts
	// FeatureVirtualIPIs enables the virtual ICR + VCIMT.
	FeatureVirtualIPIs
	// FeatureVirtualTimers enables the virtual LAPIC timer.
	FeatureVirtualTimers
	// FeatureVirtualIdle makes guest hypervisors stop trapping HLT.
	FeatureVirtualIdle
	// FeatureDirectTimerDelivery is the Section 3.2 optimization: fired
	// virtual-timer interrupts are posted straight to the nested vCPU using
	// the vector it programmed, instead of being routed through the guest
	// hypervisor.
	FeatureDirectTimerDelivery

	// FeaturesVP is the paper's "DVH-VP" configuration.
	FeaturesVP = FeatureVirtualPassthrough
	// FeaturesAll is the paper's full "DVH" configuration.
	FeaturesAll = FeatureVirtualPassthrough | FeatureVIOMMUPostedInterrupts |
		FeatureVirtualIPIs | FeatureVirtualTimers | FeatureVirtualIdle |
		FeatureDirectTimerDelivery
)

// Has reports whether every feature in want is enabled.
func (f Features) Has(want Features) bool { return f&want == want }

// DVH is the host-hypervisor side of Direct Virtual Hardware.
type DVH struct {
	World    *hyper.World
	Features Features

	// vcimts holds the per-VM mapping tables, keyed by nested VM.
	vcimts map[*hyper.VM]*VCIMT
	// vp holds virtual-passthrough state per assigned device.
	vp map[*hyper.AssignedDevice]*VPState
	// disabled lets tests and ablations turn a feature off for one guest
	// hypervisor, exercising the recursive AND-combining of enable bits.
	disabled map[*hyper.Hypervisor]Features
}

// InterceptPriority is DVH's slot in the world's interceptor chain. DVH is
// the baseline direct-handling backend: enlightenment interceptors that want
// to claim an exit class before DVH register below 100, backstops above.
const InterceptPriority = 100

// Enable activates DVH on a world: the host advertises the DVH capability
// bits as if they were hardware features and registers itself on the world's
// nested-exit interceptor chain. The caps change goes through SetHostCaps so
// the plan generation moves and compiled plans recompile.
// Registration fails if an interceptor named "dvh" is already present —
// enabling DVH twice on one world is a setup bug, not a benign no-op.
func Enable(w *hyper.World, f Features) (*DVH, error) {
	d := &DVH{
		World:    w,
		Features: f,
		vcimts:   make(map[*hyper.VM]*VCIMT),
		vp:       make(map[*hyper.AssignedDevice]*VPState),
		disabled: make(map[*hyper.Hypervisor]Features),
	}
	caps := w.Host.Caps
	if f.Has(FeatureVirtualTimers) {
		caps = caps.With(vmx.CapVirtualTimer)
	}
	if f.Has(FeatureVirtualIPIs) {
		caps = caps.With(vmx.CapVirtualIPI)
	}
	if caps != w.Host.Caps {
		w.SetHostCaps(caps)
	}
	if err := w.RegisterInterceptor(d); err != nil {
		return nil, err
	}
	return d, nil
}

// InterceptorInfo implements hyper.Interceptor.
func (d *DVH) InterceptorInfo() (string, int) { return "dvh", InterceptPriority }

// DisableAt turns features off at one guest hypervisor, as if that
// hypervisor did not support or enable them. Because enable bits AND-combine
// down the stack (Section 3.5), disabling any level disables the mechanism
// for all VMs above it.
func (d *DVH) DisableAt(h *hyper.Hypervisor, f Features) {
	d.disabled[h] |= f
	// Re-run configuration for every already-configured VM above, in a fixed
	// (name-sorted) order so control rewrites are reproducible run to run.
	vms := make([]*hyper.VM, 0, len(d.vcimts))
	for vm := range d.vcimts {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i].Name < vms[j].Name })
	for _, vm := range vms {
		d.configureControls(vm)
	}
}

// enabledThroughStack reports whether every guest hypervisor beneath the VM
// enables the feature (the recursive AND of Section 3.5).
func (d *DVH) enabledThroughStack(vm *hyper.VM, f Features) bool {
	if !d.Features.Has(f) {
		return false
	}
	for cur := vm; cur.Owner.HostVM != nil; cur = cur.Owner.HostVM {
		if d.disabled[cur.Owner]&f != 0 {
			return false
		}
	}
	return true
}

// ConfigureVM applies the enabled DVH mechanisms to a nested VM: guest
// hypervisors discover the virtual hardware through their capability word,
// set the enable bits in the VM-execution controls of the nested VM's vCPUs,
// build and publish the VCIMTs, and reconfigure HLT trapping. It must be
// called after the stack (VMs + guest hypervisors) is assembled.
func (d *DVH) ConfigureVM(vm *hyper.VM) error {
	if vm.Level < 2 {
		return fmt.Errorf("dvh: ConfigureVM on %s (level %d): DVH configures nested VMs", vm.Name, vm.Level)
	}
	// Propagate the DVH capability bits up the stack, as each guest
	// hypervisor re-exposes the virtual hardware to the next level.
	for cur := vm.Owner.HostVM; cur != nil; cur = cur.Owner.HostVM {
		if d.Features.Has(FeatureVirtualTimers) {
			cur.Caps = cur.Caps.With(vmx.CapVirtualTimer)
		}
		if d.Features.Has(FeatureVirtualIPIs) {
			cur.Caps = cur.Caps.With(vmx.CapVirtualIPI)
		}
	}
	d.configureControls(vm)

	// Under recursive DVH every nested VM in the chain gets virtual IPIs,
	// so each one needs a published VCIMT, not only vm: once a higher guest
	// hypervisor disables the feature (DisableAt), the IPIs it emulates are
	// re-sent by the VMs below it, through their own tables.
	for _, cur := range stackVMs(vm) {
		if _, ok := d.vcimts[cur]; !ok && cur.Level >= 2 && d.enabledThroughStack(cur, FeatureVirtualIPIs) {
			if _, err := d.buildVCIMT(cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// configureControls sets or clears the per-vCPU enable bits according to the
// current feature and per-hypervisor disable state. Under recursive DVH
// every VM in the chain at level >= 2 is itself a nested VM of the levels
// below, so the virtual hardware is configured for each of them — in
// particular, *all* guest hypervisors stop trapping HLT (Section 3.4).
func (d *DVH) configureControls(vm *hyper.VM) {
	for cur := vm; cur != nil; cur = cur.Owner.HostVM {
		if cur.Level >= 2 {
			d.configureVMControls(cur)
		}
	}
}

func (d *DVH) configureVMControls(vm *hyper.VM) {
	vtimer := d.enabledThroughStack(vm, FeatureVirtualTimers)
	vipi := d.enabledThroughStack(vm, FeatureVirtualIPIs)
	vidle := d.enabledThroughStack(vm, FeatureVirtualIdle)
	for _, v := range vm.VCPUs {
		if vtimer {
			v.VMCS.SetControl(vmx.FieldProcBasedControls3, vmx.Proc3VirtualTimerEnable)
		} else {
			v.VMCS.ClearControl(vmx.FieldProcBasedControls3, vmx.Proc3VirtualTimerEnable)
		}
		if vipi {
			v.VMCS.SetControl(vmx.FieldProcBasedControls3, vmx.Proc3VirtualIPIEnable)
		} else {
			v.VMCS.ClearControl(vmx.FieldProcBasedControls3, vmx.Proc3VirtualIPIEnable)
		}
		// Virtual idle: the guest hypervisor only yields HLT interposition
		// when it has no other nested VM it could schedule instead
		// (Section 3.4's policy).
		if vidle && len(vm.Owner.Guests) <= 1 {
			v.VMCS.ClearControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
		} else {
			v.VMCS.SetControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
		}
	}
}

// TryHandle implements hyper.Interceptor: the host inspects an exit from a
// nested VM and, when the corresponding virtual hardware is enabled, handles
// it directly (paper Figure 1b), charging its work to the stats sink.
func (d *DVH) TryHandle(w *hyper.World, v *hyper.VCPU, op hyper.Op) (bool, error) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	switch op.Kind {
	case hyper.OpTimerProgram:
		if !d.Features.Has(FeatureVirtualTimers) ||
			!v.VMCS.ControlSet(vmx.FieldProcBasedControls3, vmx.Proc3VirtualTimerEnable) {
			return false, nil
		}
		// Combine the TSC offsets the guest hypervisors programmed at each
		// level, then arm the host hrtimer backing the virtual timer.
		levels := v.VM.Level - 1
		offset := d.combinedTSCOffset(v)
		deadline := uint64(int64(op.Deadline) + offset)
		v.LAPIC.SetTSCDeadline(deadline)
		w.ArmVirtualTimer(v, deadline)
		stats.ChargeLevel(0, c.DVHTimerCheckWork+sim.Cycles(levels)*c.TimerOffsetWork+c.TimerProgramWork)
		stats.Inc(trace.DVHVTimerPrograms)
		return true, nil

	case hyper.OpSendIPI:
		if !d.Features.Has(FeatureVirtualIPIs) ||
			!v.VMCS.ControlSet(vmx.FieldProcBasedControls3, vmx.Proc3VirtualIPIEnable) {
			return false, nil
		}
		table, ok := d.vcimts[v.VM]
		if !ok {
			return false, fmt.Errorf("dvh: virtual IPI enabled for %s but no VCIMT published", v.VM.Name)
		}
		dest, err := table.Lookup(int(op.ICR.Dest()))
		if err != nil {
			return false, err
		}
		dest.PID.Post(op.ICR.Vector())
		dest.PID.Sync(dest.LAPIC)
		w.WakeIfIdle(dest)
		stats.ChargeLevel(0, c.IPIEmulWork+c.VCIMTLookupWork+sim.Cycles(v.VM.Level-2)*c.VCIMTPerLevelWork)
		stats.Inc(trace.DVHVIPISends)
		return true, nil

	case hyper.OpDevNotify:
		dev := v.VM.FindDeviceByDoorbell(op.Addr)
		if dev == nil || !dev.VP {
			return false, nil
		}
		// attachVP, the only writer of VP, registers the state with the
		// device it publishes.
		vp := d.vp[dev]
		// The host must confirm the fault is a doorbell access, not a
		// missing mapping: a software walk of the nested VM's (merged) EPT —
		// the extra cost the paper measures for DVH DevNotify.
		walk := v.VM.EPT.Lookup(pageOf(op.Addr), 0)
		levels := walk.LevelsTouched
		if levels < eptWalkLevels {
			levels = eptWalkLevels
		}
		stats.ChargeLevel(0, sim.Cycles(levels)*c.EPTWalkPerLevel)
		if err := w.HostBackendKick(v, dev); err != nil {
			return false, err
		}
		vp.Kicks++
		stats.Inc(trace.DVHVPKicks)
		return true, nil

	default:
		// DVH interposes only on the three kinds above; everything else is
		// forwarded to the owning guest hypervisor unchanged.
		return false, nil
	}
}

// eptWalkLevels is the radix depth of the EPT the host walks to validate a
// VP doorbell fault.
const eptWalkLevels = 4

// DirectTimerDelivery implements hyper.TimerDeliveryPolicy: fired virtual
// timers post directly when the extension is enabled and the vCPU's virtual
// timer is active.
func (d *DVH) DirectTimerDelivery(v *hyper.VCPU) bool {
	return d.Features.Has(FeatureVirtualTimers|FeatureDirectTimerDelivery) &&
		v.VMCS.ControlSet(vmx.FieldProcBasedControls3, vmx.Proc3VirtualTimerEnable)
}

// combinedTSCOffset sums the TSC offsets along the vCPU's ancestry — the
// computation the paper notes the host already performs when building the
// nested VM's VMCS (Section 3.2).
func (d *DVH) combinedTSCOffset(v *hyper.VCPU) int64 {
	var off int64
	for cur := v; cur != nil; cur = cur.Parent {
		off += cur.VMCS.TSCOffset()
	}
	return off
}
