package hyperv

import (
	"repro/internal/hyper"
	"repro/internal/trace"
)

// Enlightenment is the host-side (L0) half of Hyper-V's nested
// enlightenments, registered on the world's interceptor chain. It models the
// TLFS "direct virtual flush" optimization KVM implements for nested
// Hyper-V: the L1 Hyper-V opts in to letting L0 execute its guests'
// flush-class hypercalls (HvFlushVirtualAddressSpace and friends) directly,
// so an L2 TLB-maintenance hypercall is handled entirely at the host instead
// of being reflected up through the full Figure 1a forwarding path. It is
// the same shape as DVH — virtual hardware provided directly to nested VMs —
// but hypervisor-specific, which is exactly what the unified interceptor
// chain exists to express: a world can stack it with core.DVH and each
// claims its own exit class.
//
// The simulator's Op model carries no hypercall code, so the workload
// generator's OpHypercall stands in for the flush-class calls the
// enlightenment covers; only nested VMs whose immediate hypervisor is the
// Hyper-V personality are eligible, mirroring the opt-in.
type Enlightenment struct{}

// InterceptPriority places the enlightenment ahead of DVH
// (core.InterceptPriority 100): Hyper-V claims its own guests' hypercalls
// before the generic chain sees them. DVH never claims hypercalls, so the
// ordering is about determinism, not conflict.
const InterceptPriority = 50

// InterceptorInfo implements hyper.Interceptor.
func (Enlightenment) InterceptorInfo() (string, int) {
	return "hyperv-enlightenment", InterceptPriority
}

// TryHandle implements hyper.Interceptor: flush-class hypercalls from a
// nested VM running under a Hyper-V guest hypervisor are executed at L0,
// their work charged to the stats sink.
func (Enlightenment) TryHandle(w *hyper.World, v *hyper.VCPU, op hyper.Op) (bool, error) {
	if op.Kind != hyper.OpHypercall {
		return false, nil
	}
	if _, ok := v.VM.Owner.Personality.(HyperV); !ok {
		// The VM's hypervisor is not Hyper-V: no enlightenment contract.
		return false, nil
	}
	stats := w.Host.Machine.Stats
	stats.ChargeLevel(0, w.Costs.EnlightenedHypercallWork)
	stats.Inc(trace.HyperVEnlightenedHypercalls)
	return true, nil
}

var _ hyper.Interceptor = Enlightenment{}
