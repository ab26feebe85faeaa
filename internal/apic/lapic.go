// Package apic models the local APIC of each virtual or physical CPU at the
// register level the DVH mechanisms operate on: the interrupt command
// register (ICR) used to send IPIs, the TSC-deadline timer, the IRR/ISR
// pending-interrupt state, and the posted-interrupt descriptor through which
// APICv delivers interrupts to a running vCPU without a VM exit.
package apic

import "fmt"

// Vector is an interrupt vector number (0-255; usable vectors start at 32).
type Vector uint8

// Well-known vectors used by the simulated guests.
const (
	VectorTimer      Vector = 236 // LOCAL_TIMER_VECTOR in Linux
	VectorReschedule Vector = 253 // RESCHEDULE_VECTOR, the scheduler IPI
	VectorCallFunc   Vector = 251 // CALL_FUNCTION_VECTOR, smp_call_function IPI
	VectorVirtioIRQ  Vector = 41  // a typical MSI vector for a virtio queue
	VectorPostedIntr Vector = 242 // POSTED_INTR_VECTOR notification vector
)

// ICR encodes an x2APIC-style 64-bit interrupt command register value:
// destination APIC ID in bits 63:32, vector in bits 7:0. Delivery mode and
// shorthand bits exist on hardware but the simulator only models fixed
// delivery to a single destination, which is what IPI send paths use.
type ICR uint64

// EncodeICR builds an ICR value.
func EncodeICR(dest uint32, v Vector) ICR {
	return ICR(uint64(dest)<<32 | uint64(v))
}

// Dest extracts the destination APIC ID.
func (i ICR) Dest() uint32 { return uint32(i >> 32) }

// Vector extracts the interrupt vector.
func (i ICR) Vector() Vector { return Vector(i) }

func (i ICR) String() string {
	return fmt.Sprintf("ICR{dest=%d vec=%d}", i.Dest(), i.Vector())
}

// vecSet is a 256-bit vector set (IRR, ISR, PIR all share the layout).
type vecSet [4]uint64

func (s *vecSet) set(v Vector)       { s[v>>6] |= 1 << (v & 63) }
func (s *vecSet) clear(v Vector)     { s[v>>6] &^= 1 << (v & 63) }
func (s *vecSet) test(v Vector) bool { return s[v>>6]&(1<<(v&63)) != 0 }

// highest returns the highest set vector and true, or 0 and false when empty.
func (s *vecSet) highest() (Vector, bool) {
	for w := 3; w >= 0; w-- {
		if s[w] == 0 {
			continue
		}
		for b := 63; b >= 0; b-- {
			if s[w]&(1<<uint(b)) != 0 {
				return Vector(w*64 + b), true
			}
		}
	}
	return 0, false
}

func (s *vecSet) empty() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// LAPIC is one CPU's local APIC.
type LAPIC struct {
	irr vecSet // interrupt request register: delivered, not yet serviced
	isr vecSet // in-service register

	// Timer state: TSC-deadline mode, the mode the paper's ProgramTimer
	// microbenchmark exercises.
	tscDeadline uint64
	timerVector Vector

	// tpr is the task priority register: vectors whose priority class
	// (vector >> 4) is at or below TPR's class are held in the IRR until the
	// priority drops.
	tpr uint8
}

// NewLAPIC returns a local APIC with its timer on VectorTimer.
func NewLAPIC() *LAPIC {
	return &LAPIC{timerVector: VectorTimer}
}

// Deliver latches an interrupt into the IRR. It reports whether the vector
// was newly set: re-delivering a pending vector coalesces, as on hardware,
// and so does delivering a vector currently in service. (Real hardware can
// latch one further instance in the IRR during service; this model keeps at
// most one instance live, which is what lets the invariant checker assert
// IRR and ISR never intersect.)
func (l *LAPIC) Deliver(v Vector) bool {
	if l.irr.test(v) || l.isr.test(v) {
		return false
	}
	l.irr.set(v)
	return true
}

// HasPending reports whether any interrupt awaits service.
func (l *LAPIC) HasPending() bool { return !l.irr.empty() }

// Pending reports whether a specific vector awaits service.
func (l *LAPIC) Pending(v Vector) bool { return l.irr.test(v) }

// Ack moves the highest-priority pending interrupt to in-service and returns
// it; ok is false when nothing is pending or the highest pending vector's
// priority class does not exceed the processor priority — the maximum of the
// TPR's class and the class of the highest vector still in service (SDM
// Vol. 3 §10.8.3.1). Masking against the TPR alone would let a low-priority
// interrupt preempt a higher-priority handler that has not yet issued EOI.
func (l *LAPIC) Ack() (Vector, bool) {
	v, ok := l.irr.highest()
	if !ok {
		return 0, false
	}
	if uint8(v)>>4 <= l.PPR()>>4 {
		return 0, false
	}
	l.irr.clear(v)
	l.isr.set(v)
	return v, true
}

// PPR computes the processor priority register: the higher of the TPR and
// the priority class of the highest in-service vector (low nibble zero, as
// on hardware).
func (l *LAPIC) PPR() uint8 {
	ppr := l.tpr & 0xf0
	if v, ok := l.isr.highest(); ok && uint8(v)&0xf0 > ppr {
		ppr = uint8(v) & 0xf0
	}
	return ppr
}

// SetTPR programs the task priority register.
func (l *LAPIC) SetTPR(v uint8) { l.tpr = v }

// TPR reads the task priority register.
func (l *LAPIC) TPR() uint8 { return l.tpr }

// EOI completes service of the highest in-service vector.
func (l *LAPIC) EOI() {
	if v, ok := l.isr.highest(); ok {
		l.isr.clear(v)
	}
}

// InService reports whether a vector is being serviced.
func (l *LAPIC) InService(v Vector) bool { return l.isr.test(v) }

// IRRSnapshot returns a copy of the 256-bit interrupt request register, for
// inspection (the invariant checker asserts IRR and ISR never intersect).
func (l *LAPIC) IRRSnapshot() [4]uint64 { return [4]uint64(l.irr) }

// ISRSnapshot returns a copy of the 256-bit in-service register.
func (l *LAPIC) ISRSnapshot() [4]uint64 { return [4]uint64(l.isr) }

// SetTSCDeadline arms (or, with zero, disarms) the TSC-deadline timer. On a
// VM this is the WRMSR that causes the ProgramTimer exit.
func (l *LAPIC) SetTSCDeadline(tsc uint64) { l.tscDeadline = tsc }

// TSCDeadline returns the armed deadline (zero = disarmed).
func (l *LAPIC) TSCDeadline() uint64 { return l.tscDeadline }

// SetTimerVector configures the LVT timer entry's vector.
func (l *LAPIC) SetTimerVector(v Vector) { l.timerVector = v }

// TimerVector returns the vector timer interrupts are delivered on — the one
// extra piece of information DVH virtual timers need from the nested VM's
// APIC state to post timer interrupts directly (paper Section 3.2).
func (l *LAPIC) TimerVector() Vector { return l.timerVector }

// FireTimer delivers the timer interrupt if the deadline is armed,
// disarming it. It reports whether an interrupt was delivered.
func (l *LAPIC) FireTimer() bool {
	if l.tscDeadline == 0 {
		return false
	}
	l.tscDeadline = 0
	return l.Deliver(l.timerVector)
}
