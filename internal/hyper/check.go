package hyper

// Boundary identifies a public World entry point, each of which is one call
// to transact; the StageStats tables are indexed by it. Nested entries (a
// forwarded exit re-entering Execute, a wake inside an IPI) settle inside
// the outermost one.
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

// InvariantChecker lets an external validator (internal/check) observe the
// one engine event it cannot read back from state afterwards: a DVH
// virtual-timer arm and the TSC-offset chain its deadline was computed
// under. Everything else it checks, it sweeps from state at end of run. It
// is called on the single simulation goroutine.
type InvariantChecker interface {
	// TimerArmed reports a DVH virtual-timer arm with the host-TSC deadline
	// (the guest-programmed deadline plus the combined TSC-offset chain).
	TimerArmed(v *VCPU, hostDeadline uint64)
}
