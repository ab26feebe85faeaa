package check

import (
	"fmt"

	"repro/internal/hyper"
	"repro/internal/vmx"
)

// mergeFields is the canonical field set the end-of-run associativity check
// compares: every field vmx.Merge produces, control and state alike. Fields
// Merge never writes read as zero on both folds, so comparing a superset is
// harmless.
var mergeFields = []vmx.Field{
	vmx.FieldPinBasedControls,
	vmx.FieldProcBasedControls,
	vmx.FieldProcBasedControls2,
	vmx.FieldProcBasedControls3,
	vmx.FieldExceptionBitmap,
	vmx.FieldTSCOffset,
	vmx.FieldVCIMTAR,
	vmx.FieldHostRIP,
	vmx.FieldHostRSP,
	vmx.FieldHostCR3,
	vmx.FieldGuestRIP,
	vmx.FieldGuestRSP,
	vmx.FieldGuestRFLAGS,
	vmx.FieldGuestCR0,
	vmx.FieldGuestCR3,
	vmx.FieldGuestCR4,
	vmx.FieldGuestInterruptibility,
	vmx.FieldGuestActivityState,
}

// Finish runs the end-of-run sweep over the whole machine and returns Err().
// It may be called repeatedly; each call re-sweeps current state.
func (c *Checker) Finish() error {
	forEachVM(c.w.Host, c.sweepVM)
	for _, p := range c.w.Host.Machine.CPUs {
		c.checkLAPIC(fmt.Sprintf("pcpu%d", p.ID), p.LAPIC)
	}
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

// sweepVM checks one VM's dirty tracking, its vCPUs' LAPICs, and —
// for vCPUs at least three levels deep — VMCS merge-chain associativity.
func (c *Checker) sweepVM(vm *hyper.VM) {
	c.checkDirtyTracking(vm)
	for _, v := range vm.VCPUs {
		c.checkLAPIC(vcpuName(v), v.LAPIC)
		c.checkMergeChain(v)
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

// checkMergeChain verifies vmx.Merge associativity on the vCPU's live VMCS
// nesting chain: folding outermost-in (what MergeChain does, and what an L0
// walking down does) must equal folding innermost-out (what a guest
// hypervisor handing a pre-merged vmcs12 up does). Chains shorter than three
// are trivially associative and skipped.
func (c *Checker) checkMergeChain(v *hyper.VCPU) {
	chain := vmcsChain(v)
	if len(chain) < 3 {
		return
	}
	left := vmx.MergeChain(chain...)
	right := foldRight(chain)
	for _, f := range mergeFields {
		if l, r := left.Read(f), right.Read(f); l != r {
			c.violate("merge-associativity",
				"%s: field %#x differs between folds: left %#x, right %#x", vcpuName(v), f.Encoding(), l, r)
			return
		}
	}
}

// vmcsChain collects the VMCSs from the outermost ancestor down to v itself.
func vmcsChain(v *hyper.VCPU) []*vmx.VMCS {
	var chain []*vmx.VMCS
	for cur := v; cur != nil; cur = cur.Parent {
		chain = append(chain, cur.VMCS)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// foldRight merges the chain right-associatively: a⊕(b⊕(c⊕…)).
func foldRight(chain []*vmx.VMCS) *vmx.VMCS {
	if len(chain) == 1 {
		return chain[0]
	}
	return vmx.Merge(chain[0], foldRight(chain[1:]))
}
