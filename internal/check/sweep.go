package check

import "repro/internal/hyper"

// Finish runs the end-of-run sweep over the whole machine and returns Err().
// It may be called repeatedly; each call re-sweeps current state.
func (c *Checker) Finish() error {
	forEachVM(c.w.Host, c.checkDirtyTracking)
	// Re-verify every recorded timer arm against the *current* VMCS chain: a
	// TSC offset corrupted after the arm was consistent still trips here.
	for i := range c.arms {
		c.checkArm(c.arms[i])
	}
	if c.armsDropped > 0 {
		// Not a violation, but the sweep's coverage claim must be honest.
		c.violate("timer-arm-overflow",
			"%d timer arm(s) beyond the %d-record cap were not re-verified", c.armsDropped, maxTimerArms)
	}
	return c.Err()
}

// forEachVM visits every VM in the nesting tree, outermost levels first.
func forEachVM(h *hyper.Hypervisor, fn func(*hyper.VM)) {
	for _, vm := range h.Guests {
		fn(vm)
		if vm.GuestHyp != nil {
			forEachVM(vm.GuestHyp, fn)
		}
	}
}

// checkDirtyTracking verifies, at one nesting level, that the migration dirty
// log is a subset of the all-time written set, the one record of a written
// page — the invariant pre-copy migration depends on. It reports the lowest
// offender.
func (c *Checker) checkDirtyTracking(vm *hyper.VM) {
	log := vm.DirtyLog()
	if log == nil {
		return
	}
	written := vm.WrittenSet()
	for _, p := range log.PFNs() {
		if !written.Test(uint64(p)) {
			c.violate("dirty-subset-written", "%s: frame %#x in dirty log but never written", vm.Name, uint64(p))
			return
		}
	}
}
