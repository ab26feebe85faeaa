package hyper

import (
	"testing"

	"repro/internal/vmx"
)

// TestProfileSwapInvalidation is the stale-plan regression for calibration
// profile swaps (style of TestForwardPlanInvalidation): a swap replaces both
// inputs a compiled forward plan bakes in — cycle costs and the
// capability-shaped recursion — through SetCosts and SetHostCaps, and must
// force one flush and a recompilation, with results identical to a fresh
// world built directly in the new calibration.
func TestProfileSwapInvalidation(t *testing.T) {
	swap := func(w *World, c CostModel, caps vmx.Caps) {
		w.SetCosts(c)
		w.SetHostCaps(caps)
	}
	w, vms := testStack(t, 2)
	v := vms[1].VCPUs[0]
	before := exec(t, w, v, Hypercall())
	exec(t, w, v, Hypercall()) // second run replays the compiled plan
	invalidations := w.Plan.Invalidations

	// A profile swap that moves both axes at once: pricier reflection AND no
	// VMCS shadowing. Either change alone already invalidates; the point of
	// the test is that the two setters together leave no stale plan.
	costs := w.Costs
	costs.ReflectWork *= 2
	caps := w.Host.Caps.Without(vmx.CapVMCSShadowing)
	swap(w, costs, caps)

	after := exec(t, w, v, Hypercall())
	if after <= before {
		t.Errorf("profile swap left forwarded cost at %v (was %v): stale plan replayed", after, before)
	}
	if w.Plan.Invalidations != invalidations+1 {
		t.Errorf("profile swap flushed the plan table %d times, want once", w.Plan.Invalidations-invalidations)
	}

	// A live (uncached) world built straight into the new calibration must
	// agree exactly — the recompiled plan carries no residue of the old one.
	ref, refVMs := testStack(t, 2)
	ref.SetPlanCache(false)
	swap(ref, costs, caps)
	if want := exec(t, ref, refVMs[1].VCPUs[0], Hypercall()); after != want {
		t.Errorf("recompiled cost %v != live cost %v under swapped profile", after, want)
	}

	// Swapping back to the original calibration restores the original cost.
	swap(w, DefaultCosts(), vmx.HardwareCaps)
	if again := exec(t, w, v, Hypercall()); again != before {
		t.Errorf("restoring the original profile: cost %v, want %v", again, before)
	}
}
