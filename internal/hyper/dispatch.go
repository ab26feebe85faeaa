package hyper

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// This file is the dispatch half of the pipeline: Execute's staged flow from
// a trapping guest operation to a settled transaction — fast-path, intercept
// (pipeline.go), route, and emulate-or-forward. The forwarding recursion that
// makes exit multiplication an emergent property lives in plan.go, where it
// doubles as the compiler for the plan replay cache.

// reasonFor maps an operation to its VM-exit reason.
func reasonFor(op Op) vmx.ExitReason {
	switch op.Kind {
	case OpHypercall:
		return vmx.ExitVMCALL
	case OpDevNotify:
		return vmx.ExitEPTViolation
	case OpTimerProgram:
		return vmx.ExitMSRWrite
	case OpSendIPI:
		return vmx.ExitAPICAccess
	case OpHLT:
		return vmx.ExitHLT
	case OpEOI:
		return vmx.ExitAPICAccess
	case OpMemTouch:
		return vmx.ExitEPTViolation
	default:
		return vmx.ExitExceptionNMI
	}
}

// Execute runs one guest operation issued by vCPU v and returns its cost in
// cycles. State effects (timer arming, IPI posting, ring processing, idle
// transitions) are applied along the way. Execute is the simulator's
// equivalent of "the guest executed a trapping instruction": it opens an
// exit transaction and flows it through the pipeline stages.
func (w *World) Execute(v *VCPU, op Op) (sim.Cycles, error) {
	return w.transact(BoundaryExecute, v, op, nil)
}

// dispatch drives an Execute transaction through the pipeline: operations
// with exit-free fast paths end at StageFastPath; everything else takes a
// hardware exit into L0, where the interceptor chain may claim it before it
// is routed to its owning level and emulated (owner 0) or forwarded.
func (w *World) dispatch(tx *ExitContext) error {
	done, err := w.stageFastPath(tx)
	if done || err != nil {
		return err
	}

	// Every remaining path takes a physical exit into L0.
	stats := w.Host.Machine.Stats
	stats.RecordHardwareExit(tx.Reason)
	tx.add(StageRoute, w.Costs.HwExit)
	stats.ChargeLevel(0, w.Costs.HwExit)

	stack, err := w.stack(tx.V)
	if err != nil {
		return err
	}

	done, err = w.stageIntercept(tx)
	if done || err != nil {
		return err
	}

	w.stageRoute(tx)
	if tx.Owner == 0 {
		return w.stageEmulate(tx)
	}
	return w.stageForward(tx, stack)
}

// stageFastPath completes operations that never exit: a mapped memory
// access, a posted doorbell write to a passed-through physical device, and
// an APICv-absorbed EOI.
func (w *World) stageFastPath(tx *ExitContext) (bool, error) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	switch tx.Op.Kind {
	case OpMemTouch:
		if _, miss := w.faultOwner(tx.V, tx.Op.Addr); !miss {
			stats.ChargeGuest(c.TLBHitCost)
			tx.add(StageFastPath, c.TLBHitCost)
			return true, nil
		}
	case OpDevNotify:
		dev := tx.V.VM.FindDeviceByDoorbell(tx.Op.Addr)
		if dev == nil {
			return false, fmt.Errorf("hyper: %s: doorbell write to unmapped %#x", tx.V.Path(), uint64(tx.Op.Addr))
		}
		if dev.Phys != nil {
			// Device passthrough: the doorbell is EPT-mapped to the physical
			// device; a posted write, no exit at any level.
			stats.Inc(trace.PassthroughKicks, 1)
			w.Host.Machine.NIC.TxFrames++
			stats.ChargeGuest(c.MMIODirect)
			tx.add(StageFastPath, c.MMIODirect)
			return true, nil
		}
	case OpEOI:
		// APICv register virtualization absorbs EOI writes.
		if tx.V.VMCS.ControlSet(vmx.FieldProcBasedControls2, vmx.Proc2APICRegisterVirt) {
			tx.V.LAPIC.EOI()
			stats.ChargeGuest(c.APICvEOICost)
			tx.add(StageFastPath, c.APICvEOICost)
			return true, nil
		}
	default:
		// Intentionally partial: only these kinds have exit-free fast paths;
		// every other kind always exits below.
	}
	return false, nil
}

// stageRoute resolves which hypervisor level owns the exit and records the
// routed transaction on the trace timeline.
func (w *World) stageRoute(tx *ExitContext) {
	tx.Owner = w.ownerLevel(tx.V, tx.Op)
	w.Tracer.Record(tx.Reason, tx.Level, tx.Owner)
}

// stageEmulate concludes a host-owned exit: L0 dispatches to its handler,
// performs the emulation work, and re-enters the guest.
func (w *World) stageEmulate(tx *ExitContext) error {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	stats.RecordHandledExit(tx.Reason, 0)
	stats.ChargeLevel(0, c.HostDispatch+c.HwEntry)
	work, err := w.hostHandle(tx.V, tx.Op)
	if err != nil {
		return err
	}
	tx.add(StageEmulate, c.HostDispatch+work+c.HwEntry)
	return nil
}

// stageForward reflects a guest-hypervisor-owned exit up the stack. The pure
// cost/charge tree of the reflection (plan.go) replays from its compiled plan
// in steady state — or re-runs the live recursion when the cache is disabled
// — and the owner's side effects always run live after it.
func (w *World) stageForward(tx *ExitContext, stack []*Hypervisor) error {
	w.Host.Machine.Stats.RecordHandledExit(tx.Reason, tx.Owner)
	fwd := w.charge(stack, planForward, tx.Reason, tx.Owner)
	eff, err := w.ownerEffects(tx.V, tx.Op, tx.Owner)
	if err != nil {
		return err
	}
	tx.add(StageForward, fwd+eff)
	return nil
}

// ownerLevel decides which hypervisor level must handle the exit.
func (w *World) ownerLevel(v *VCPU, op Op) int {
	n := v.VM.Level
	switch op.Kind {
	case OpHypercall, OpTimerProgram, OpSendIPI, OpEOI:
		return n - 1
	case OpHLT:
		// The innermost hypervisor that traps HLT for its guest owns the
		// exit; with DVH virtual idle, guest hypervisors clear the control
		// so ownership falls through to the host.
		for a := v; a != nil; a = a.Parent {
			if a.VMCS.ControlSet(vmx.FieldProcBasedControls, vmx.ProcHLTExiting) {
				return a.VM.Level - 1
			}
		}
		return 0
	case OpDevNotify:
		dev := v.VM.FindDeviceByDoorbell(op.Addr)
		if dev == nil {
			return n - 1
		}
		return dev.ProviderLevel
	case OpMemTouch:
		owner, miss := w.faultOwner(v, op.Addr)
		if !miss {
			return 0
		}
		return owner
	}
	return n - 1
}

// faultOwner walks the EPT chain for a memory access, returning the level of
// the hypervisor whose table misses first (the innermost miss) and whether
// any level missed at all. On hardware with nested EPT the fault is
// delivered to exactly that hypervisor.
func (w *World) faultOwner(v *VCPU, a mem.Addr) (int, bool) {
	cur := v.VM
	addr := a
	for cur != nil {
		wlk := cur.EPT.Lookup(mem.PageOf(addr), mem.PermRead)
		if !wlk.Present {
			return cur.Level - 1, true
		}
		addr = wlk.PFN.Base() + (addr & (mem.PageSize - 1))
		cur = cur.Owner.HostVM
	}
	return 0, false
}

// fillFault installs the missing translation at the faulting level — the
// handler's core work at whichever hypervisor took the fault. Filling an EPT
// fault legitimately allocates page-table nodes, which is why OpMemTouch is
// excluded from the steady-state allocation contract (see alloc_test.go).
//
//nvlint:cold
func (w *World) fillFault(v *VCPU, a mem.Addr, owner int) error {
	cur := v.VM
	addr := a
	for cur != nil && cur.Level > owner+1 {
		wlk := cur.EPT.Lookup(mem.PageOf(addr), mem.PermRead)
		if !wlk.Present {
			return fmt.Errorf("hyper: fault at level %d but mapping missing at %s", owner, cur.Name)
		}
		addr = wlk.PFN.Base() + (addr & (mem.PageSize - 1))
		cur = cur.Owner.HostVM
	}
	if cur == nil {
		return fmt.Errorf("hyper: fault owner %d beyond chain", owner)
	}
	_, err := cur.EnsureMapped(mem.PageOf(addr))
	return err
}

// execAsLevel executes an operation as if issued by the hypervisor at the
// given level (which runs as a guest in the VM at that level). Level 0 ops
// are native and must be charged by the caller.
func (w *World) execAsLevel(v *VCPU, level int, op Op) (sim.Cycles, error) {
	if level == 0 {
		return 0, fmt.Errorf("hyper: execAsLevel(0) is native work, not an exit")
	}
	av, err := v.AncestorAt(level)
	if err != nil {
		return 0, err
	}
	return w.Execute(av, op)
}

// ownerEffects applies the state changes and follow-on operations of a
// guest-hypervisor-owned exit.
func (w *World) ownerEffects(v *VCPU, op Op, owner int) (sim.Cycles, error) {
	stats := w.Host.Machine.Stats
	switch op.Kind {
	case OpHypercall, OpEOI:
		return 0, nil
	case OpTimerProgram:
		// The guest hypervisor emulates the timer with its own hrtimer,
		// which it arms by programming its (virtual) LAPIC timer — a fresh
		// trapping operation one level down.
		v.LAPIC.SetTSCDeadline(op.Deadline)
		return w.execAsLevel(v, owner, ProgramTimer(op.Deadline))
	case OpSendIPI:
		// The guest hypervisor resolves the destination among its own vCPUs,
		// updates the posted-interrupt descriptor, and sends the physical
		// IPI by writing its own ICR — again a trapping operation below.
		dest, err := w.ipiDestination(v, op)
		if err != nil {
			return 0, err
		}
		dest.PID.Post(op.ICR.Vector())
		cost, err := w.execAsLevel(v, owner, SendIPI(uint32(dest.PhysCPU), op.ICR.Vector()))
		if err != nil {
			return 0, err
		}
		dest.PID.Sync(dest.LAPIC)
		wake, err := w.WakeIfIdle(dest)
		if err != nil {
			return 0, err
		}
		return cost + wake, nil
	case OpHLT:
		// The guest hypervisor blocks the vCPU and, if it manages another
		// runnable nested vCPU on this CPU, switches to it — the reason the
		// virtual-idle policy keeps HLT trapped with multiple nested VMs.
		v.Idle = true
		stats.Inc(trace.IdleBlocks, 1)
		stack, err := w.stack(v)
		if err != nil {
			return 0, err
		}
		if next := stack[owner].EnsureScheduler().PickNext(v.PhysCPU, v); next != nil {
			return w.guestSwitch(stack, owner, v, next)
		}
		return 0, nil
	case OpDevNotify:
		dev := v.VM.FindDeviceByDoorbell(op.Addr)
		if dev == nil {
			return 0, fmt.Errorf("hyper: doorbell %#x vanished during forwarding", uint64(op.Addr))
		}
		return w.backendWork(v, dev, owner)
	case OpMemTouch:
		// The owning guest hypervisor fills its EPT level; its own memory
		// for the new table pages may fault one level further down, which
		// the recursion models as part of the forwarded handler cost.
		if err := w.fillFault(v, op.Addr, owner); err != nil {
			return 0, err
		}
		stats.ChargeLevel(owner, w.Costs.EPTFillWork)
		return w.Costs.EPTFillWork, nil
	}
	return 0, nil
}

// hostHandle performs the host hypervisor's emulation work for an exit it
// owns, charges that work, and returns it (the fixed dispatch/entry costs
// are charged by stageEmulate).
func (w *World) hostHandle(v *VCPU, op Op) (sim.Cycles, error) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	switch op.Kind {
	case OpHypercall:
		return 0, nil
	case OpTimerProgram:
		v.LAPIC.SetTSCDeadline(op.Deadline)
		w.armHostTimer(v, op.Deadline)
		stats.ChargeLevel(0, c.TimerProgramWork)
		return c.TimerProgramWork, nil
	case OpSendIPI:
		dest, err := w.ipiDestination(v, op)
		if err != nil {
			return 0, err
		}
		dest.PID.Post(op.ICR.Vector())
		dest.PID.Sync(dest.LAPIC)
		stats.ChargeLevel(0, c.IPIEmulWork)
		wake, err := w.WakeIfIdle(dest)
		if err != nil {
			return 0, err
		}
		return c.IPIEmulWork + wake, nil
	case OpHLT:
		v.Idle = true
		stats.Inc(trace.IdleBlocks, 1)
		stats.ChargeLevel(0, c.HLTBlockWork)
		return c.HLTBlockWork, nil
	case OpDevNotify:
		dev := v.VM.FindDeviceByDoorbell(op.Addr)
		if dev == nil {
			return 0, fmt.Errorf("hyper: doorbell %#x has no device", uint64(op.Addr))
		}
		return w.backendWork(v, dev, 0)
	case OpEOI:
		v.LAPIC.EOI()
		return 0, nil
	case OpMemTouch:
		if err := w.fillFault(v, op.Addr, 0); err != nil {
			return 0, err
		}
		stats.ChargeLevel(0, c.EPTFillWork)
		return c.EPTFillWork, nil
	}
	return 0, fmt.Errorf("hyper: host cannot handle op %v", op.Kind)
}
