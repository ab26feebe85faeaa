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
// body below as its own exit transaction and charges the body's cost to
// StageDeliver; the checker frames stack when a delivery happens inside a
// larger transaction (an IPI waking its destination).

// DeliverTimerIRQ delivers a fired timer interrupt to its vCPU and returns
// the delivery cost. A level-1 VM (and, with the direct-delivery extension,
// a nested VM under DVH virtual timers) receives it as a posted interrupt;
// otherwise the guest hypervisor emulating the timer must run its injection
// path first.
func (w *World) DeliverTimerIRQ(v *VCPU) (sim.Cycles, error) {
	return w.transact(BoundaryTimerIRQ, v, Op{}, nil)
}

func (w *World) deliverTimerIRQ(v *VCPU) (sim.Cycles, error) {
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
				stats.Inc(trace.DVHVTimerDirectDeliveries, 1)
				break
			}
		}
	}
	var cost sim.Cycles
	if direct {
		stats.ChargeLevel(0, c.InjectPostedRunning)
		cost = c.InjectPostedRunning
	} else {
		stack, err := w.stack(v)
		if err != nil {
			return 0, err
		}
		cost = w.charge(stack, planInject, 0, v.VM.Level-1)
	}
	wake, err := w.WakeIfIdle(v)
	if err != nil {
		return 0, err
	}
	return cost + wake, nil
}

// WakeIfIdle transitions an idle vCPU back to running and returns the wake
// cost. The notification (a posted interrupt) is always processed by the
// host, which unblocks the destination; each guest hypervisor level that had
// parked the vCPU then runs its scheduler and re-enters the guest. The big
// idle penalty of nested virtualization is paid on the way *into* idle (the
// forwarded HLT exit), which is exactly what DVH virtual idle removes.
func (w *World) WakeIfIdle(dest *VCPU) (sim.Cycles, error) {
	return w.transact(BoundaryWake, dest, Op{}, nil)
}

func (w *World) wakeIfIdle(dest *VCPU) (sim.Cycles, error) {
	if !dest.Idle {
		return 0, nil
	}
	dest.Idle = false
	w.Host.Machine.Stats.Inc(trace.IdleWakes, 1)

	// The idle-owner level is recomputed live on every wake — it depends on
	// the stack's HLT-exiting controls, which DVH virtual idle flips without
	// moving any generation — and is the wake plan's key.
	return w.charge(nil, planWake, 0, w.ownerLevel(dest, Op{Kind: OpHLT})), nil
}

// wakeLadderCost is the wake ladder's pure charge tree: the host processes
// the posted notification and unblocks the destination, then every guest
// hypervisor level that had parked the vCPU runs its scheduler and re-enters
// the guest. Written once over the sink, like every cached charge tree.
func (w *World) wakeLadderCost(idleOwner int, sink chargeSink) sim.Cycles {
	c := &w.Costs
	sink.chargeLevel(0, c.WakeWork)
	cost := c.WakeWork
	for j := 1; j <= idleOwner; j++ {
		sink.chargeLevel(j, c.GuestWakeWork)
		cost += c.GuestWakeWork
	}
	return cost
}

// DeliverDeviceIRQ models a completion interrupt from a device to the vCPU
// that owns its queue, returning the delivery cost. Posted-capable paths
// deliver without an exit; otherwise the interrupt must be injected by the
// hypervisor level that interposes on it.
func (w *World) DeliverDeviceIRQ(dev *AssignedDevice, target *VCPU) (sim.Cycles, error) {
	return w.transact(BoundaryDeviceIRQ, target, Op{}, dev)
}

func (w *World) deliverDeviceIRQ(dev *AssignedDevice, target *VCPU) (sim.Cycles, error) {
	c := &w.Costs
	stats := w.Host.Machine.Stats
	target.LAPIC.Deliver(dev.IRQ)
	stats.Inc(trace.IRQDelivered, 1)

	wake, err := w.WakeIfIdle(target)
	if err != nil {
		return 0, err
	}
	if dev.PostedDelivery {
		stats.ChargeLevel(0, c.InjectPostedRunning)
		return c.InjectPostedRunning + wake, nil
	}
	// Exit-based injection: the hypervisor that interposes on the interrupt
	// must run its (short) injection path. For a virtual-passthrough device
	// whose vIOMMU lacks posting, that is the guest hypervisor owning the
	// vIOMMU (level n-1).
	injector := target.VM.Level - 1
	if injector <= 0 {
		stats.ChargeLevel(0, c.InjectExitPath)
		return c.InjectExitPath + wake, nil
	}
	stack, err := w.stack(target)
	if err != nil {
		return 0, err
	}
	return w.charge(stack, planInject, 0, injector) + wake, nil
}

// guestPathCost charges an exit into the hypervisor at the given level that
// runs the supplied script there (reflecting through intermediate levels),
// without any owner side effects — the charge tree of an interrupt injection
// and of each receive-path interposition, written once over the sink.
func (w *World) guestPathCost(stack []*Hypervisor, reason vmx.ExitReason, level int, s Script, sink chargeSink) sim.Cycles {
	c := &w.Costs
	sink.hardwareExit(reason)
	sink.handledExit(reason, level)
	sink.traceEvent(reason, level+1, level)
	cost := c.HwExit + c.ReflectWork + c.HwEntry
	sink.chargeLevel(0, cost)
	for j := 1; j < level; j++ {
		cost += w.scriptCost(stack, j, stack[j].Personality.ReflectScript(), sink)
	}
	cost += w.scriptCost(stack, level, s, sink)
	return cost
}

// DeviceRX models inbound data arriving for a device: every interposing
// virtio backend processes and relays the data upward — the receive half of
// the paravirtual cascade — and the completion interrupt is then delivered
// to the target vCPU. For passthrough the data lands in VM memory directly;
// for virtual-passthrough only the host backend runs.
func (w *World) DeviceRX(dev *AssignedDevice, target *VCPU) (sim.Cycles, error) {
	return w.transact(BoundaryDeviceRX, target, Op{}, dev)
}

func (w *World) deviceRX(dev *AssignedDevice, target *VCPU) (sim.Cycles, error) {
	var cost sim.Cycles
	w.Host.Machine.NIC.RxFrames++

	if dev.Phys == nil {
		provider := dev.ProviderLevel
		var stack []*Hypervisor
		if provider >= 1 {
			var err error
			stack, err = w.stack(target)
			if err != nil {
				return 0, err
			}
		}
		cost += w.charge(stack, planCascade, 0, provider)
	}
	del, err := w.DeliverDeviceIRQ(dev, target)
	if err != nil {
		return 0, err
	}
	return cost + del, nil
}

// rxCascadeCost is the receive cascade's pure charge tree: the host backend
// (vhost) receives from the wire, then each interposing hypervisor's backend
// runs its receive path and re-queues the data into the next level's ring.
// stack may be nil when provider < 1 (nothing interposes).
func (w *World) rxCascadeCost(stack []*Hypervisor, provider int, sink chargeSink) sim.Cycles {
	c := &w.Costs
	sink.chargeLevel(0, c.VirtioBackendWork)
	cost := c.VirtioBackendWork
	for j := 1; j <= provider; j++ {
		cost += w.guestPathCost(stack, vmx.ExitEPTViolation, j, stack[j].Personality.HandlerScript(vmx.ExitEPTViolation), sink)
		sink.chargeLevel(j, c.VirtioBackendWork)
		cost += c.VirtioBackendWork
	}
	return cost
}

// ipiDestination resolves an ICR destination to a vCPU of the sender's VM.
func (w *World) ipiDestination(v *VCPU, op Op) (*VCPU, error) {
	id := int(op.ICR.Dest())
	if id < 0 || id >= len(v.VM.VCPUs) {
		return nil, fmt.Errorf("hyper: IPI from %s to missing vCPU %d", v.Path(), id)
	}
	return v.VM.VCPUs[id], nil
}
