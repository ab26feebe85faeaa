package hyper

import "repro/internal/sim"

// Boundary identifies which engine entry point an invariant-checker frame
// covers. Every public World entry point opens a frame on entry and closes it
// on return; nested entries (a forwarded exit re-entering Execute, a wake
// inside an IPI) stack.
type Boundary uint8

const (
	// BoundaryExecute is a guest operation entering World.Execute.
	BoundaryExecute Boundary = iota
	// BoundaryTimerIRQ is a fired timer interrupt being delivered.
	BoundaryTimerIRQ
	// BoundaryDeviceIRQ is a device completion interrupt being delivered.
	BoundaryDeviceIRQ
	// BoundaryDeviceRX is inbound device data being processed.
	BoundaryDeviceRX
	// BoundaryWake is an idle vCPU being woken.
	BoundaryWake
)

// boundaryCount is the number of boundaries (for per-boundary ledgers). It is
// no boundary; nvlint's exhaustive rule skips it as a count sentinel.
const boundaryCount = BoundaryWake + 1

func (b Boundary) String() string {
	switch b {
	case BoundaryExecute:
		return "Execute"
	case BoundaryTimerIRQ:
		return "DeliverTimerIRQ"
	case BoundaryDeviceIRQ:
		return "DeliverDeviceIRQ"
	case BoundaryDeviceRX:
		return "DeviceRX"
	case BoundaryWake:
		return "WakeIfIdle"
	}
	return "Boundary(?)"
}

// InvariantChecker observes the engine/hypervisor boundary so an external
// validator (internal/check) can verify conservation laws after every
// operation without the engine knowing what is being checked. All methods are
// called on the single simulation goroutine.
//
// Op is passed by value for the same reason Interceptor.TryHandle takes it by
// value: a pointer through the interface boundary would force every Execute
// call's op to escape, and the hot path with no checker attached must stay
// allocation-free, as TestExecuteNestedAllocFree requires.
type InvariantChecker interface {
	// Begin opens a frame when a boundary is entered; the returned token is
	// handed back to the matching End.
	Begin(w *World, v *VCPU, b Boundary, op Op) int
	// End closes the frame with the boundary's returned cost and error.
	End(token int, w *World, v *VCPU, b Boundary, op Op, cost sim.Cycles, err error)
	// TimerArmed reports a DVH virtual-timer arm with the host-TSC deadline
	// (the guest-programmed deadline plus the combined TSC-offset chain).
	TimerArmed(w *World, v *VCPU, hostDeadline uint64)
}
