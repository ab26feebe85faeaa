// Package check validates simulator-wide invariants at the engine/hypervisor
// boundary. A Checker attaches to a hyper.World (zero cost when absent) and
// verifies, after every boundary operation and again at end of run, the
// laws the engine's state must keep:
//
//   - LAPIC sanity: a vector is never both pending (IRR) and in service
//     (ISR) on the same local APIC;
//   - dirty tracking: the dirty log is a subset of the written set at every
//     nesting level;
//   - TSC-offset chaining: a DVH virtual timer's host deadline equals the
//     guest deadline plus the combined TSC-offset chain, re-verified at end
//     of run against the live VMCS chain;
//   - VMCS merge associativity: folding a nesting chain left or right yields
//     the same vmcs02 (recursive virtualization soundness).
//
// The conservation laws of cycles and exits are not checked: trace.Stats is
// the one record of each, every cycle charged once at the level that spent
// it and every exit counted once at the level that handled it, so both hold
// by construction. Nor is frame balance: one engine function opens and
// closes every boundary's frame, so End always closes the innermost one.
//
// The package also hosts the metamorphic property tests and fuzz targets
// described in DESIGN.md.
package check

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/hyper"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Invariant is the short, grep-friendly invariant name.
	Invariant string
	// Detail describes the specific breach.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

const (
	// maxViolations bounds the stored violation list; the total is always
	// counted.
	maxViolations = 64
	// maxTimerArms bounds the timer-arm records kept for the end-of-run
	// re-verification.
	maxTimerArms = 16384
)

// frame is one open boundary. The timer-arm check reads the operation of
// the innermost open Execute: a virtual-timer arm inside a guest's timer
// program is checked against the TSC-offset chain, one outside any against
// the LAPIC deadline a restore set.
type frame struct {
	b  hyper.Boundary
	op hyper.Op
}

// timerArm records one DVH virtual-timer arm for chain re-verification.
type timerArm struct {
	v             *hyper.VCPU
	guestDeadline uint64
	hostDeadline  uint64
}

// Checker implements hyper.InvariantChecker. It is single-threaded, like the
// engine it observes.
type Checker struct {
	w           *hyper.World
	frames      []frame
	arms        []timerArm
	armsDropped int
	violations  []Violation
	total       int
}

// Attach installs a fresh checker on a world and returns it. Call Finish at
// end of run for the global sweep.
func Attach(w *hyper.World) *Checker {
	c := &Checker{w: w}
	w.Check = c
	return c
}

// Violations returns the recorded breaches (capped at maxViolations; Total
// counts all of them).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the number of violations observed, including any beyond the
// stored cap.
func (c *Checker) Total() int { return c.total }

// Err returns nil when no invariant was violated, else an error naming the
// first breach.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s", c.total, c.violations[0])
}

func (c *Checker) violate(invariant, format string, args ...any) {
	c.total++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}
}

// Begin implements hyper.InvariantChecker.
func (c *Checker) Begin(b hyper.Boundary, op hyper.Op) {
	//nvlint:ignore hotalloc frame stack capacity is warm after the first op at each nesting depth
	c.frames = append(c.frames, frame{b: b, op: op})
}

// End implements hyper.InvariantChecker: it pops the innermost frame, which
// the engine guarantees is this boundary's.
func (c *Checker) End(v *hyper.VCPU, b hyper.Boundary, err error) {
	c.frames = c.frames[:len(c.frames)-1]
	if err != nil {
		// Error paths abandon the operation midway, and the state they
		// leave is not checked.
		return
	}
	if v != nil {
		// The disjointness test itself is allocation-free; the vCPU name is
		// only rendered once a breach is being reported.
		if word, overlap, bad := lapicOverlap(v.LAPIC); bad {
			//nvlint:ignore hotalloc violation path: formatting the breach report may allocate
			c.violate("lapic-irr-isr-disjoint", "%s: vectors %#x (word %d) both pending and in service", vcpuName(v), overlap, word)
		}
	}
}

// TimerArmed implements hyper.InvariantChecker: a DVH virtual-timer arm is
// checked immediately against the current TSC-offset chain and recorded for
// the end-of-run re-verification (which catches later chain corruption).
func (c *Checker) TimerArmed(v *hyper.VCPU, hostDeadline uint64) {
	guest, ok := c.pendingTimerProgram()
	if !ok {
		// Not a guest timer program: a snapshot restore re-arming the saved
		// deadline (core.RestoreVMState). The saved deadline is already in
		// the host TSC domain and must match the restored LAPIC exactly;
		// the guest-domain deadline is derived so the end-of-run sweep still
		// catches chain corruption after the restore.
		if lapic := v.LAPIC.TSCDeadline(); hostDeadline != lapic {
			//nvlint:ignore hotalloc violation path: formatting the breach report may allocate
			c.violate("timer-arm-lapic", "%s: restored timer armed for %d but LAPIC programmed with %d", vcpuName(v), hostDeadline, lapic)
			return
		}
		guest = uint64(int64(hostDeadline) - combinedTSCOffset(v))
	}
	arm := timerArm{v: v, guestDeadline: guest, hostDeadline: hostDeadline}
	c.checkArm(arm)
	if len(c.arms) < maxTimerArms {
		c.arms = append(c.arms, arm) //nvlint:ignore hotalloc capped record buffer; growth amortizes to the maxTimerArms cap
	} else {
		c.armsDropped++
	}
}

// pendingTimerProgram finds the innermost open Execute frame carrying an
// OpTimerProgram — the guest-programmed deadline the arm corresponds to.
func (c *Checker) pendingTimerProgram() (uint64, bool) {
	for i := len(c.frames) - 1; i >= 0; i-- {
		f := &c.frames[i]
		if f.b == hyper.BoundaryExecute && f.op.Kind == hyper.OpTimerProgram {
			return f.op.Deadline, true
		}
	}
	return 0, false
}

// checkArm verifies hostDeadline == guestDeadline + combined TSC offset.
func (c *Checker) checkArm(a timerArm) {
	chain := combinedTSCOffset(a.v)
	want := uint64(int64(a.guestDeadline) + chain)
	if a.hostDeadline != want {
		//nvlint:ignore hotalloc violation path: formatting the breach report may allocate
		c.violate("tsc-offset-chain", "%s: host deadline %d != guest deadline %d + chain offset %d (= %d)", vcpuName(a.v), a.hostDeadline, a.guestDeadline, chain, want)
	}
}

// combinedTSCOffset recomputes the TSC-offset chain from the live VMCSs,
// mirroring the DVH layer's computation (core.combinedTSCOffset).
func combinedTSCOffset(v *hyper.VCPU) int64 {
	var off int64
	for cur := v; cur != nil; cur = cur.Parent {
		off += cur.VMCS.TSCOffset()
	}
	return off
}

// checkLAPIC verifies IRR/ISR disjointness: hardware never holds a vector as
// both pending and in service. Used by the end-of-run sweep; the boundary
// path (End) calls lapicOverlap directly so the name is formatted only when a
// breach is reported.
func (c *Checker) checkLAPIC(name string, l *apic.LAPIC) {
	if word, overlap, bad := lapicOverlap(l); bad {
		c.violate("lapic-irr-isr-disjoint",
			"%s: vectors %#x (word %d) both pending and in service", name, overlap, word)
	}
}

// lapicOverlap returns the first IRR/ISR word overlap, allocation-free.
func lapicOverlap(l *apic.LAPIC) (word int, overlap uint64, bad bool) {
	irr, isr := l.IRRSnapshot(), l.ISRSnapshot()
	for i := range irr {
		if o := irr[i] & isr[i]; o != 0 {
			return i, o, true
		}
	}
	return 0, 0, false
}

// vcpuName renders a vCPU identity for a violation message; it allocates and
// must only be called on breach-reporting paths.
func vcpuName(v *hyper.VCPU) string {
	if v == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s/vcpu%d", v.VM.Name, v.ID)
}
