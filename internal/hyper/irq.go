package hyper

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// This file is the deliver stage of the pipeline: interrupt deliveries
// (timer, device completion), inbound device data, and idle wakes. Each
// public entry point is one call to transact (pipeline.go), which runs the
// body below as its own exit transaction, one StageDeliver span; the checker
// frames stack when a delivery happens inside a larger transaction (an IPI
// waking its destination). No delivery can fail (see World): the bodies
// return nothing, and each entry point discards the nil error transact
// returns for it.

// DeliverTimerIRQ delivers a fired timer interrupt to its vCPU and returns
// the delivery cost. A level-1 VM (and, with the direct-delivery extension,
// a nested VM under DVH virtual timers) receives it as a posted interrupt;
// otherwise the guest hypervisor emulating the timer must run its injection
// path first.
func (w *World) DeliverTimerIRQ(v *VCPU) sim.Cycles {
	c, _ := w.transact(BoundaryTimerIRQ, v, Op{}, nil)
	return c
}

func (w *World) deliverTimerIRQ(v *VCPU) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	v.PID.Post(v.LAPIC.TimerVector())
	v.PID.Sync(v.LAPIC)

	direct := v.VM.Level <= 1
	if !direct {
		// A registered interceptor with a delivery policy (DVH virtual
		// timers) can post the interrupt straight to the nested vCPU.
		for _, it := range w.interceptors {
			if policy, ok := it.(TimerDeliveryPolicy); ok && policy.DirectTimerDelivery(v) {
				direct = true
				stats.Inc(trace.DVHVTimerDirectDeliveries)
				break
			}
		}
	}
	if direct {
		stats.ChargeLevel(0, c.InjectPostedRunning)
	} else {
		w.charge(v.VM.stack, planInject, 0, v.VM.Level-1)
	}
	w.WakeIfIdle(v)
}

// WakeIfIdle transitions an idle vCPU back to running and returns the wake
// cost. The notification (a posted interrupt) is always processed by the
// host, which unblocks the destination; each guest hypervisor level that had
// parked the vCPU then runs its scheduler and re-enters the guest. The big
// idle penalty of nested virtualization is paid on the way *into* idle (the
// forwarded HLT exit), which is exactly what DVH virtual idle removes.
func (w *World) WakeIfIdle(dest *VCPU) sim.Cycles {
	c, _ := w.transact(BoundaryWake, dest, Op{}, nil)
	return c
}

func (w *World) wakeIfIdle(dest *VCPU) {
	if !dest.Idle {
		return
	}
	dest.Idle = false
	w.Host.Machine.Stats.Inc(trace.IdleWakes)

	// The idle-owner level is recomputed live on every wake — it depends on
	// the stack's HLT-exiting controls, which DVH virtual idle flips without
	// moving any generation — and is the wake plan's key.
	w.charge(nil, planWake, 0, hltOwner(dest))
}

// wakeLadderCost is the wake ladder's pure charge tree: the host processes
// the posted notification and unblocks the destination, then every guest
// hypervisor level that had parked the vCPU runs its scheduler and re-enters
// the guest. Written once over the sink, like every cached charge tree.
func (w *World) wakeLadderCost(idleOwner int, sink chargeSink) {
	c := &w.Costs
	sink.chargeLevel(0, c.WakeWork)
	for j := 1; j <= idleOwner; j++ {
		sink.chargeLevel(j, c.GuestWakeWork)
	}
}

// DeliverDeviceIRQ models a completion interrupt from a device to the vCPU
// that owns its queue, returning the delivery cost. Posted-capable paths
// deliver without an exit; otherwise the interrupt must be injected by the
// hypervisor level that interposes on it.
func (w *World) DeliverDeviceIRQ(dev *AssignedDevice, target *VCPU) sim.Cycles {
	c, _ := w.transact(BoundaryDeviceIRQ, target, Op{}, dev)
	return c
}

func (w *World) deliverDeviceIRQ(dev *AssignedDevice, target *VCPU) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	target.LAPIC.Deliver(dev.IRQ)
	stats.Inc(trace.IRQDelivered)

	w.WakeIfIdle(target)
	if dev.PostedDelivery {
		stats.ChargeLevel(0, c.InjectPostedRunning)
		return
	}
	// Exit-based injection: the hypervisor that interposes on the interrupt
	// must run its (short) injection path. For a virtual-passthrough device
	// whose vIOMMU lacks posting, that is the guest hypervisor owning the
	// vIOMMU (level n-1).
	injector := target.VM.Level - 1
	if injector <= 0 {
		stats.ChargeLevel(0, c.InjectExitPath)
		return
	}
	w.charge(target.VM.stack, planInject, 0, injector)
}

// guestPathCost charges an exit into the hypervisor at the given level that
// runs the supplied script there (reflecting through intermediate levels),
// without any owner side effects — the charge tree of an interrupt injection
// and of each receive-path interposition, written once over the sink.
func (w *World) guestPathCost(stack []*Hypervisor, reason vmx.ExitReason, level int, s Script, sink chargeSink) {
	c := &w.Costs
	sink.exit(reason, level+1, level)
	sink.chargeLevel(0, c.HwExit+c.ReflectWork+c.HwEntry)
	for j := 1; j < level; j++ {
		w.scriptCost(stack, j, stack[j].Personality.ReflectScript(), sink)
	}
	w.scriptCost(stack, level, s, sink)
}

// DeviceRX models inbound data arriving for a device: every interposing
// virtio backend processes and relays the data upward — the receive half of
// the paravirtual cascade — and the completion interrupt is then delivered
// to the target vCPU. For passthrough the data lands in VM memory directly;
// for virtual-passthrough only the host backend runs.
func (w *World) DeviceRX(dev *AssignedDevice, target *VCPU) sim.Cycles {
	c, _ := w.transact(BoundaryDeviceRX, target, Op{}, dev)
	return c
}

func (w *World) deviceRX(dev *AssignedDevice, target *VCPU) {
	w.Host.Machine.NIC.RxFrames++

	if dev.Phys == nil {
		w.charge(target.VM.stack, planCascade, 0, dev.ProviderLevel)
	}
	w.DeliverDeviceIRQ(dev, target)
}

// rxCascadeCost is the receive cascade's pure charge tree: the host backend
// (vhost) receives from the wire, then each interposing hypervisor's backend
// runs its receive path and re-queues the data into the next level's ring.
func (w *World) rxCascadeCost(stack []*Hypervisor, provider int, sink chargeSink) {
	c := &w.Costs
	sink.chargeLevel(0, c.VirtioBackendWork)
	for j := 1; j <= provider; j++ {
		w.guestPathCost(stack, vmx.ExitEPTViolation, j, stack[j].Personality.HandlerScript(vmx.ExitEPTViolation), sink)
		sink.chargeLevel(j, c.VirtioBackendWork)
	}
}

// ipiDestination resolves an ICR destination to a vCPU of the sender's VM.
func (w *World) ipiDestination(v *VCPU, op Op) (*VCPU, error) {
	id := int(op.ICR.Dest())
	if id < 0 || id >= len(v.VM.VCPUs) {
		return nil, fmt.Errorf("hyper: IPI from %s to missing vCPU %d", v.Path(), id)
	}
	return v.VM.VCPUs[id], nil
}
