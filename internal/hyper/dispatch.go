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
// is routed to its owning level and emulated (owner 0) or forwarded. It
// enters each stage before the stage charges anything, so an observed
// transaction's spans split the stats sink's total by stage; sp is nil for
// an unobserved one.
func (w *World) dispatch(tx *ExitContext, sp *stageSpans) error {
	done, err := w.stageFastPath(tx)
	if done || err != nil {
		return err
	}

	// Every remaining path takes a physical exit into L0, charged to
	// StageRoute. The exit is recorded once, where its handler is known:
	// by stageIntercept if an interceptor claims it, else by stageRoute.
	stats := w.Host.Machine.Stats
	sp.enter(StageRoute, stats)
	stats.ChargeLevel(0, w.Costs.HwExit)

	sp.enter(StageIntercept, stats)
	done, err = w.stageIntercept(tx)
	if done || err != nil {
		return err
	}

	w.stageRoute(tx)
	if tx.Owner == 0 {
		sp.enter(StageEmulate, stats)
		return w.stageEmulate(tx)
	}
	sp.enter(StageForward, stats)
	return w.stageForward(tx)
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
			return true, nil
		}
	case OpDevNotify:
		dev := tx.V.VM.FindDeviceByDoorbell(tx.Op.Addr)
		if dev == nil {
			return false, fmt.Errorf("hyper: %s: doorbell write to unmapped %#x", tx.V.Path(), uint64(tx.Op.Addr))
		}
		tx.Dev = dev
		if dev.Phys != nil {
			// Device passthrough: the doorbell is EPT-mapped to the physical
			// device; a posted write, no exit at any level.
			stats.Inc(trace.PassthroughKicks)
			w.Host.Machine.NIC.TxFrames++
			stats.ChargeGuest(c.MMIODirect)
			return true, nil
		}
	case OpEOI:
		// APICv register virtualization absorbs EOI writes.
		if tx.V.VMCS.ControlSet(vmx.FieldProcBasedControls2, vmx.Proc2APICRegisterVirt) {
			tx.V.LAPIC.EOI()
			stats.ChargeGuest(c.APICvEOICost)
			return true, nil
		}
	default:
		// Intentionally partial: only these kinds have exit-free fast paths;
		// every other kind always exits below.
	}
	return false, nil
}

// stageRoute resolves which hypervisor level owns the exit and records the
// exit, counted at that owner and put on the trace timeline.
func (w *World) stageRoute(tx *ExitContext) {
	tx.Owner = w.ownerLevel(tx)
	w.exit(tx.Reason, tx.Level, tx.Owner)
}

// stageEmulate concludes a host-owned exit: L0 dispatches to its handler,
// performs the emulation work, and re-enters the guest.
func (w *World) stageEmulate(tx *ExitContext) error {
	c := &w.Costs
	w.Host.Machine.Stats.ChargeLevel(0, c.HostDispatch+c.HwEntry)
	return w.hostHandle(tx)
}

// stageForward reflects a guest-hypervisor-owned exit up the stack. The pure
// cost/charge tree of the reflection (plan.go) replays from its compiled plan
// in steady state — or re-runs the live recursion when the cache is disabled
// — and the owner's side effects always run live after it.
func (w *World) stageForward(tx *ExitContext) error {
	w.charge(tx.V.VM.stack, planForward, tx.Reason, tx.Owner)
	return w.ownerEffects(tx)
}

// ownerLevel decides which hypervisor level must handle the exit.
func (w *World) ownerLevel(tx *ExitContext) int {
	n := tx.Level
	switch tx.Op.Kind {
	case OpHypercall, OpTimerProgram, OpSendIPI, OpEOI:
		return n - 1
	case OpHLT:
		return hltOwner(tx.V)
	case OpDevNotify:
		// The backend provider owns the kick; StageFastPath resolved the
		// device.
		return tx.Dev.ProviderLevel
	case OpMemTouch:
		owner, miss := w.faultOwner(tx.V, tx.Op.Addr)
		if !miss {
			return 0
		}
		return owner
	}
	return n - 1
}

// hltOwner is the level that owns v's HLT exit: the innermost hypervisor
// that traps HLT for its guest. With DVH virtual idle, guest hypervisors
// clear the control, so ownership falls through to the host.
func hltOwner(v *VCPU) int {
	for a := v; a != nil; a = a.Parent {
		if a.VMCS.ControlSet(vmx.FieldProcBasedControls, vmx.ProcHLTExiting) {
			return a.VM.Level - 1
		}
	}
	return 0
}

// faultOwner walks the EPT chain for a memory access, returning the level of
// the hypervisor whose table misses first (the innermost miss) and whether
// any level missed at all. On hardware with nested EPT the fault is
// delivered to exactly that hypervisor.
func (w *World) faultOwner(v *VCPU, a mem.Addr) (int, bool) {
	cur := v.VM
	addr := a
	for cur != nil {
		wlk := cur.EPT.Lookup(mem.PageOf(addr))
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
// The route stage's faultOwner has just walked the same chain and found
// every level above the owner's VM mapped, and only charges run between the
// two walks, so this one reaches that VM. Only its fill can fail, on a guest
// frame beyond its RAM or past its page table's reach.
//
//nvlint:cold
func (w *World) fillFault(v *VCPU, a mem.Addr, owner int) error {
	cur := v.VM
	addr := a
	for cur.Level > owner+1 {
		addr = cur.EPT.Lookup(mem.PageOf(addr)).PFN.Base() + (addr & (mem.PageSize - 1))
		cur = cur.Owner.HostVM
	}
	_, err := cur.EnsureMapped(mem.PageOf(addr))
	return err
}

// execAsLevel executes an operation as if issued by the hypervisor at the
// given level, which runs as a guest in the VM at that level: v's ancestor
// there issues it. Both callers pass a level in [1, v's level - 1]; work at
// level 0 is native, and they charge it themselves.
func (w *World) execAsLevel(v *VCPU, level int, op Op) error {
	for v.VM.Level > level {
		v = v.Parent
	}
	_, err := w.Execute(v, op)
	return err
}

// ownerEffects applies the state changes and follow-on operations of a
// guest-hypervisor-owned exit. The owner of a forwarded HLT parks the vCPU
// it schedules, v's ancestor in the owner's guest VM, and switches from that
// vCPU, so a switch always stays between two guests of one hypervisor.
func (w *World) ownerEffects(tx *ExitContext) error {
	v, op, owner := tx.V, tx.Op, tx.Owner
	stats := w.Host.Machine.Stats
	switch op.Kind {
	case OpHypercall, OpEOI:
		return nil
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
			return err
		}
		dest.PID.Post(op.ICR.Vector())
		if err := w.execAsLevel(v, owner, SendIPI(uint32(dest.PhysCPU), op.ICR.Vector())); err != nil {
			return err
		}
		dest.PID.Sync(dest.LAPIC)
		w.WakeIfIdle(dest)
		return nil
	case OpHLT:
		// The guest hypervisor blocks the vCPU and, if it manages another
		// runnable nested vCPU on this CPU, switches to it — the reason the
		// virtual-idle policy keeps HLT trapped with multiple nested VMs.
		// The vCPU it parks is v itself unless a hypervisor between them
		// yields HLT.
		v.Idle = true
		stats.Inc(trace.IdleBlocks)
		parked := v
		for parked.VM.Level > owner+1 {
			parked = parked.Parent
		}
		if next := v.VM.stack[owner].EnsureScheduler().PickNext(v.PhysCPU, parked); next != nil {
			w.guestSwitch(owner, parked, next)
		}
		return nil
	case OpDevNotify:
		return w.backendWork(v, tx.Dev, owner)
	case OpMemTouch:
		// The owning guest hypervisor fills its EPT level; its own memory
		// for the new table pages may fault one level further down, which
		// the recursion models as part of the forwarded handler cost.
		if err := w.fillFault(v, op.Addr, owner); err != nil {
			return err
		}
		stats.ChargeLevel(owner, w.Costs.EPTFillWork)
		return nil
	}
	return fmt.Errorf("hyper: L%d hypervisor cannot handle op %v", owner, op.Kind)
}

// hostHandle performs and charges the host hypervisor's emulation work for
// an exit it owns (the fixed dispatch/entry costs are charged by
// stageEmulate).
func (w *World) hostHandle(tx *ExitContext) error {
	v, op := tx.V, tx.Op
	c := &w.Costs
	stats := w.Host.Machine.Stats
	switch op.Kind {
	case OpHypercall:
		return nil
	case OpTimerProgram:
		v.LAPIC.SetTSCDeadline(op.Deadline)
		w.armHostTimer(v, op.Deadline)
		stats.ChargeLevel(0, c.TimerProgramWork)
		return nil
	case OpSendIPI:
		dest, err := w.ipiDestination(v, op)
		if err != nil {
			return err
		}
		dest.PID.Post(op.ICR.Vector())
		dest.PID.Sync(dest.LAPIC)
		stats.ChargeLevel(0, c.IPIEmulWork)
		w.WakeIfIdle(dest)
		return nil
	case OpHLT:
		v.Idle = true
		stats.Inc(trace.IdleBlocks)
		stats.ChargeLevel(0, c.HLTBlockWork)
		return nil
	case OpDevNotify:
		return w.backendWork(v, tx.Dev, 0)
	case OpEOI:
		v.LAPIC.EOI()
		return nil
	case OpMemTouch:
		if err := w.fillFault(v, op.Addr, 0); err != nil {
			return err
		}
		stats.ChargeLevel(0, c.EPTFillWork)
		return nil
	}
	return fmt.Errorf("hyper: host cannot handle op %v", op.Kind)
}
