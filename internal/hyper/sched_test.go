package hyper

import (
	"testing"

	"repro/internal/vmx"
)

// twoGuestStack builds an L1 hypervisor managing two nested VMs whose vCPUs
// share pins — the multi-tenant case the virtual-idle policy is about.
func twoGuestStack(t *testing.T) (*World, *Hypervisor, *VM, *VM) {
	t.Helper()
	w, vms := testStack(t, 2)
	gh := vms[0].GuestHyp
	second, err := gh.CreateVM(VMConfig{Name: "L2-vm-b", VCPUs: 4, MemBytes: 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return w, gh, vms[1], second
}

func TestSchedulerRoundRobinFair(t *testing.T) {
	_, gh, a, b := twoGuestStack(t)
	s := gh.EnsureScheduler()
	if gh.EnsureScheduler() != s {
		t.Fatal("EnsureScheduler not idempotent")
	}
	// Two runnable vCPUs share CPU 0 (a.VCPUs[0] and b.VCPUs[0]); repeated
	// picks must alternate.
	counts := map[*VCPU]int{}
	for i := 0; i < 10; i++ {
		v := s.PickNext(0, nil)
		if v == nil {
			t.Fatal("no candidate")
		}
		counts[v]++
	}
	if counts[a.VCPUs[0]] != 5 || counts[b.VCPUs[0]] != 5 {
		t.Fatalf("round robin unfair: %d vs %d", counts[a.VCPUs[0]], counts[b.VCPUs[0]])
	}
}

func TestSchedulerSkipsIdleAndExcept(t *testing.T) {
	_, gh, a, b := twoGuestStack(t)
	s := gh.EnsureScheduler()
	b.VCPUs[0].Idle = true
	for i := 0; i < 4; i++ {
		if v := s.PickNext(0, nil); v != a.VCPUs[0] {
			t.Fatalf("picked %v, want the only runnable vCPU", v)
		}
	}
	if v := s.PickNext(0, a.VCPUs[0]); v != nil {
		t.Fatalf("picked %v with everything excluded or idle", v)
	}
}

func TestHLTSwitchesToSiblingNestedVM(t *testing.T) {
	w, _, a, b := twoGuestStack(t)
	stats := w.Host.Machine.Stats
	// a's vCPU 0 halts; the guest hypervisor owns the exit (two nested VMs:
	// virtual idle would not be enabled here) and must switch to b's vCPU 0.
	cost := exec(t, w, a.VCPUs[0], Halt())
	if !a.VCPUs[0].Idle {
		t.Fatal("vCPU not idle")
	}
	if stats.Counter("sched.switches") != 1 {
		t.Fatalf("sched.switches = %d, want 1", stats.Counter("sched.switches"))
	}
	// The incoming vCPU's VMCS is now current; the outgoing one is cleared.
	if !b.VCPUs[0].VMCS.Current() {
		t.Fatal("incoming VMCS not loaded")
	}
	if a.VCPUs[0].VMCS.Current() {
		t.Fatal("outgoing VMCS still current")
	}
	// The switch rides on the forwarded HLT, so the total stays in the
	// forwarded-exit magnitude.
	if cost < 30_000 {
		t.Fatalf("HLT+switch = %v cycles; expected forwarded magnitude", cost)
	}
}

func TestHLTWithNoSiblingDoesNotSwitch(t *testing.T) {
	w, vms := testStack(t, 2)
	exec(t, w, vms[1].VCPUs[0], Halt())
	if w.Host.Machine.Stats.Counter("sched.switches") != 0 {
		t.Fatal("switch performed with nothing to switch to")
	}
}

// TestForwardedHLTSwitchesOwnersGuest: an L3 vCPU whose L2 hypervisor yields
// HLT halts, and the L1 hypervisor, which traps it and has a second guest,
// owns the exit. It parks the vCPU it schedules, the L3 vCPU's L2 parent,
// and switches from that one to the sibling VM's vCPU.
func TestForwardedHLTSwitchesOwnersGuest(t *testing.T) {
	w, vms := testStack(t, 3)
	sibling, err := vms[0].GuestHyp.CreateVM(VMConfig{Name: "L2-vm-b", VCPUs: 1, MemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	v := vms[2].VCPUs[0]
	v.VMCS.ClearControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
	exec(t, w, v, Halt())
	if !v.Idle {
		t.Fatal("halted vCPU not idle")
	}
	if n := w.Host.Machine.Stats.Counter("sched.switches"); n != 1 {
		t.Fatalf("sched.switches = %d, want 1", n)
	}
	if !sibling.VCPUs[0].VMCS.Current() {
		t.Fatal("sibling's VMCS not loaded")
	}
	if v.Parent.VMCS.Current() {
		t.Fatal("L2 parent's VMCS still current")
	}
}
