package experiment

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/hyperv"
	"repro/internal/xen"
)

// TestUnifiedInterceptorChainHyperV is the integration proof for the unified
// chain: a full evaluation stack registers core.DVH and the Hyper-V
// enlightenment together, the invariant checker watches the run, and
// each interceptor claims its own exit class — the enlightenment executes the
// nested VM's hypercall at L0 (direct virtual flush) while DVH keeps claiming
// doorbells and timer writes.
func TestUnifiedInterceptorChainHyperV(t *testing.T) {
	st, err := Build(Spec{Depth: 2, IO: IODVH, Guest: GuestHyperV})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.World.RegisterInterceptor(hyperv.Enlightenment{}); err != nil {
		t.Fatal(err)
	}
	chk := check.Attach(st.World)

	chain := st.World.Interceptors()
	if len(chain) != 2 {
		t.Fatalf("chain length = %d, want 2 (enlightenment + dvh)", len(chain))
	}
	n0, p0 := chain[0].InterceptorInfo()
	n1, p1 := chain[1].InterceptorInfo()
	if n0 != "hyperv-enlightenment" || n1 != "dvh" || p0 >= p1 {
		t.Fatalf("chain = [%s(%d) %s(%d)], want enlightenment before dvh", n0, p0, n1, p1)
	}

	v := st.Target.VCPUs[0]
	c := &st.World.Costs
	stats := st.Machine.Stats

	// The enlightenment claims the nested hypercall: host-direct envelope,
	// no forwarding into the Hyper-V guest hypervisor.
	cost, err := st.World.Execute(v, hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	want := c.HwExit + c.HostDispatch + c.EnlightenedHypercallWork + c.HwEntry
	if cost != want {
		t.Errorf("enlightened hypercall = %v cycles, want %v (direct at L0)", cost, want)
	}
	if n := stats.Counter("hyperv.enlightened_hypercalls"); n != 1 {
		t.Errorf("hyperv.enlightened_hypercalls = %d, want 1", n)
	}
	if n := stats.GuestHypervisorExits(); n != 0 {
		t.Errorf("hypercall forwarded %d exits into the guest hypervisor, want 0", n)
	}

	// DVH still claims its classes through the same chain: a virtual
	// passthrough doorbell never reaches the Hyper-V level either.
	if _, err := st.World.Execute(v, hyper.DevNotify(st.Net.Doorbell)); err != nil {
		t.Fatal(err)
	}
	if n := stats.GuestHypervisorExits(); n != 0 {
		t.Errorf("doorbell forwarded %d exits into the guest hypervisor, want 0", n)
	}

	if err := chk.Finish(); err != nil {
		t.Errorf("invariant checker: %v", err)
	}
	if n := chk.Total(); n != 0 {
		t.Errorf("checker recorded %d violations: %v", n, chk.Violations())
	}
}

// TestUnifiedInterceptorChainXen registers the Xen event-channel offload next
// to DVH on a Xen-guest stack and verifies the IPI class routes through it:
// L0 posts the event directly to the destination vCPU, the Xen guest
// hypervisor never runs, and the conservation frames stay clean — including
// the nested wake boundary when the destination is idle.
func TestUnifiedInterceptorChainXen(t *testing.T) {
	st, err := Build(Spec{Depth: 2, IO: IODVH, Guest: GuestXen})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.World.RegisterInterceptor(xen.Enlightenment{}); err != nil {
		t.Fatal(err)
	}
	chk := check.Attach(st.World)

	v := st.Target.VCPUs[0]
	dest := st.Target.VCPUs[1]
	dest.Idle = true
	c := &st.World.Costs
	stats := st.Machine.Stats

	cost, err := st.World.Execute(v, hyper.SendIPI(1, apic.VectorReschedule))
	if err != nil {
		t.Fatal(err)
	}
	// Full DVH includes virtual idle, so the host owns the destination's HLT:
	// the wake is host work only, no guest-level reschedule.
	want := c.HwExit + c.HostDispatch + c.EvtchnNotifyWork + c.HwEntry + c.WakeWork
	if cost != want {
		t.Errorf("evtchn IPI = %v cycles, want %v (direct delivery + wake)", cost, want)
	}
	if n := stats.Counter("xen.evtchn_ipis"); n != 1 {
		t.Errorf("xen.evtchn_ipis = %d, want 1", n)
	}
	if dest.Idle {
		t.Error("destination vCPU not woken by direct event delivery")
	}
	if !dest.LAPIC.Pending(apic.VectorReschedule) {
		t.Error("event vector not pending on destination LAPIC")
	}

	if err := chk.Finish(); err != nil {
		t.Errorf("invariant checker: %v", err)
	}
}

// TestEnlightenmentRequiresMatchingPersonality pins the opt-in: the
// enlightenments only claim exits from VMs whose immediate hypervisor runs
// the matching personality, so on the default KVM-on-KVM stack both decline
// and the exit takes the ordinary path (here DVH forwards the hypercall —
// the chain charges one check per declining interceptor).
func TestEnlightenmentRequiresMatchingPersonality(t *testing.T) {
	base, err := Build(Spec{Depth: 2, IO: IODVH})
	if err != nil {
		t.Fatal(err)
	}
	baseCost, err := base.World.Execute(base.Target.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}

	st, err := Build(Spec{Depth: 2, IO: IODVH})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.World.RegisterInterceptor(hyperv.Enlightenment{}); err != nil {
		t.Fatal(err)
	}
	if err := st.World.RegisterInterceptor(xen.Enlightenment{}); err != nil {
		t.Fatal(err)
	}
	cost, err := st.World.Execute(st.Target.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	want := baseCost + 2*st.World.Costs.DVHCheckWork
	if cost != want {
		t.Errorf("KVM-guest hypercall with foreign enlightenments = %v, want %v (forwarded + 2 declines)", cost, want)
	}
	if n := st.Machine.Stats.Counter("hyperv.enlightened_hypercalls"); n != 0 {
		t.Errorf("Hyper-V enlightenment claimed a KVM guest's hypercall (%d)", n)
	}
	if n := core.InterceptPriority; n <= hyperv.InterceptPriority || n <= xen.InterceptPriority {
		t.Errorf("DVH priority %d must sort after the enlightenments (%d, %d)", n, hyperv.InterceptPriority, xen.InterceptPriority)
	}
}
