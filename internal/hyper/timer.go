package hyper

import "repro/internal/sim"

// This file holds the timer plumbing behind the pipeline: the World's
// timeline, hrtimer arming for host-emulated and DVH virtual timers, and the
// delivery-policy extension an interceptor can implement to post fired
// timers straight to nested vCPUs.

// TimerDeliveryPolicy is an optional extension of Interceptor: when a
// registered interceptor implements it, fired virtual-timer interrupts can be
// posted straight to the nested vCPU instead of being injected through its
// guest hypervisor — the further optimization Section 3.2 of the paper
// describes (the only extra information needed is the vector the nested VM
// programmed, which the LAPIC model holds).
type TimerDeliveryPolicy interface {
	DirectTimerDelivery(v *VCPU) bool
}

// armHostTimer queues the hrtimer backing a LAPIC deadline on the World's
// timeline as an event carrying the vCPU. No event is ever cancelled: a
// stale one still fires, and fireTimer delivers only if FireTimer reports
// the timer armed. Queue growth allocates, so timer programming is excluded
// from the steady-state allocation contract (OpTimerProgram is not a steady
// op in alloc_test.go).
//
//nvlint:cold
func (w *World) armHostTimer(v *VCPU, deadline uint64) {
	w.timeline.ScheduleAt(max(sim.Time(deadline), w.timeline.Now()), v)
}

// Now returns the current simulated time on the World's timeline.
func (w *World) Now() sim.Time { return w.timeline.Now() }

// RunUntil advances the World's timeline to t, firing every host timer due
// by then in deadline order, and leaves the clock at t. A delivery cannot
// fail, so neither can RunUntil.
func (w *World) RunUntil(t sim.Time) {
	w.timeline.RunUntil(t, w.fireTimer)
}

// fireTimer fires v's LAPIC timer and, if it was still armed, delivers the
// timer interrupt.
func (w *World) fireTimer(v *VCPU) {
	if v.LAPIC.FireTimer() {
		w.DeliverTimerIRQ(v)
	}
}

// ArmVirtualTimer schedules the host hrtimer backing a DVH virtual timer for
// a nested vCPU; firing and wake behavior match the host's own timers. The
// deadline is in host TSC units — the guest deadline plus the combined
// TSC-offset chain.
func (w *World) ArmVirtualTimer(v *VCPU, deadline uint64) {
	if w.Check != nil {
		w.Check.TimerArmed(v, deadline)
	}
	w.armHostTimer(v, deadline)
}
