// Package check validates simulator-wide invariants. A Checker attaches to a
// hyper.World (zero cost when absent), records every DVH virtual-timer arm
// the engine reports, and at end of run sweeps the laws the engine's state
// must keep:
//
//   - timer arms: every arm equals the LAPIC deadline its arm site set
//     (timer-arm-lapic), and the TSC-offset chain it was computed under has
//     not moved by end of run (tsc-offset-chain);
//   - dirty tracking: the dirty log is a subset of the written set at every
//     nesting level.
//
// Laws that hold by construction are not checked. trace.Stats is the one
// record of cycles and of exits, every cycle charged once at the level that
// spent it and every exit counted once at the level that handled it, so
// both conservation laws hold. Only a LAPIC's Deliver, Ack and EOI write
// its IRR and ISR, and they keep the two disjoint, which FuzzLAPIC drives.
// No engine path calls vmx.Merge, whose associativity FuzzMergeChain holds.
//
// The package also hosts the metamorphic property tests and fuzz targets
// described in DESIGN.md.
package check

import (
	"fmt"

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

// timerArm records one DVH virtual-timer arm and the TSC-offset chain its
// deadline was computed under, for the end-of-run re-verification.
type timerArm struct {
	v            *hyper.VCPU
	hostDeadline uint64
	chain        int64
}

// Checker implements hyper.InvariantChecker. It is single-threaded, like the
// engine it observes.
type Checker struct {
	w           *hyper.World
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

// TimerArmed implements hyper.InvariantChecker. Both arm sites, a guest's
// timer program (core.DVH.TryHandle) and a restore (core.RestoreVMState),
// set the vCPU's LAPIC deadline just before they arm, so every arm must
// equal it. The arm is recorded with the current TSC-offset chain for the
// end-of-run re-verification, which catches a chain corrupted later.
func (c *Checker) TimerArmed(v *hyper.VCPU, hostDeadline uint64) {
	if lapic := v.LAPIC.TSCDeadline(); hostDeadline != lapic {
		//nvlint:ignore hotalloc violation path: formatting the breach report may allocate
		c.violate("timer-arm-lapic", "%s: timer armed for %d but LAPIC programmed with %d", vcpuName(v), hostDeadline, lapic)
	}
	if len(c.arms) < maxTimerArms {
		c.arms = append(c.arms, timerArm{v: v, hostDeadline: hostDeadline, chain: combinedTSCOffset(v)}) //nvlint:ignore hotalloc capped record buffer; growth amortizes to the maxTimerArms cap
	} else {
		c.armsDropped++
	}
}

// checkArm reports an arm whose TSC-offset chain moved after it: the host
// deadline no longer equals the guest's deadline plus the live chain.
func (c *Checker) checkArm(a timerArm) {
	if chain := combinedTSCOffset(a.v); chain != a.chain {
		c.violate("tsc-offset-chain", "%s: timer armed for %d under TSC-offset chain %d, which is now %d", vcpuName(a.v), a.hostDeadline, a.chain, chain)
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

// vcpuName renders a vCPU identity for a violation message; it allocates and
// must only be called on breach-reporting paths.
func vcpuName(v *hyper.VCPU) string {
	return fmt.Sprintf("%s/vcpu%d", v.VM.Name, v.ID)
}
