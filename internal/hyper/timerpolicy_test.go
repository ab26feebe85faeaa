package hyper

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// stubTimerPolicy is an interceptor carrying a TimerDeliveryPolicy, for the
// scheduler-interceptor interaction test: it never claims exits, only answers
// delivery-policy queries, recording each consultation.
type stubTimerPolicy struct {
	name     string
	priority int
	direct   bool
	asked    *[]string
}

func (s *stubTimerPolicy) InterceptorInfo() (string, int) { return s.name, s.priority }

func (s *stubTimerPolicy) TryHandle(w *World, v *VCPU, op Op) (bool, error) {
	return false, nil
}

func (s *stubTimerPolicy) DirectTimerDelivery(v *VCPU) bool {
	*s.asked = append(*s.asked, s.name)
	return s.direct
}

// TestTimerPolicySchedulerInteraction is the ROADMAP's scheduler-interceptor
// open item: two nested VMs share one guest hypervisor (so its scheduler has
// real sibling-switching decisions to make) while multiple
// TimerDeliveryPolicy-providing interceptors are registered. The delivery
// path consults the chain in (priority, name) order and the first policy that
// grants direct delivery wins — so consultation order, delivery costs, idle
// wake behavior and the guest scheduler's switch count must all come out
// identical no matter the registration order.
func TestTimerPolicySchedulerInteraction(t *testing.T) {
	build := func(reversed bool) (*World, []*VM, *[]string) {
		w, vms := testStack(t, 2)
		// Second nested VM under the same guest hypervisor: the scheduler at
		// L1 now has sibling vCPUs to switch between on HLT.
		gh := vms[0].GuestHyp
		sib, err := gh.CreateVM(VMConfig{Name: "L2-sibling", VCPUs: 4, MemBytes: 2 << 30})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, sib)

		asked := &[]string{}
		// Consultation order must be (priority, name): decliner (10) first,
		// then grantor (20); "zz-decliner" sorting after "grantor" by name
		// proves priority, not name, is the primary key.
		grantor := &stubTimerPolicy{name: "grantor", priority: 20, direct: true, asked: asked}
		decliner := &stubTimerPolicy{name: "zz-decliner", priority: 10, direct: false, asked: asked}
		if reversed {
			mustRegister(t, w, grantor)
			mustRegister(t, w, decliner)
		} else {
			mustRegister(t, w, decliner)
			mustRegister(t, w, grantor)
		}
		return w, vms, asked
	}

	type outcome struct {
		asked    []string
		halt     sim.Cycles
		deliverA sim.Cycles
		deliverB sim.Cycles
		switches uint64
		directs  uint64
		idleA    bool
	}
	run := func(reversed bool) outcome {
		w, vms, asked := build(reversed)
		stats := w.Host.Machine.Stats
		a, b := vms[1].VCPUs[0], vms[2].VCPUs[0]

		// vCPU A halts: the guest hypervisor owns the HLT (no DVH virtual
		// idle here) and its scheduler switches to the sibling VM's vCPU.
		halt := exec(t, w, a, Halt())
		if !a.Idle {
			t.Fatal("vCPU A not idle after HLT")
		}

		// Timer delivery to the idle A: the chain grants direct delivery, so
		// the interrupt posts without running L1's injection path, and the
		// wake pays the guest-reschedule cost.
		deliverA := w.DeliverTimerIRQ(a)
		// And to the running B: direct again, no wake.
		deliverB := w.DeliverTimerIRQ(b)
		return outcome{
			asked:    *asked,
			halt:     halt,
			deliverA: deliverA,
			deliverB: deliverB,
			switches: stats.Counter("sched.switches"),
			directs:  stats.Counter("dvh.vtimer.direct_deliveries"),
			idleA:    a.Idle,
		}
	}

	fwd := run(false)
	rev := run(true)
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("registration order changed behavior:\nforward:  %+v\nreversed: %+v", fwd, rev)
	}
	if want := []string{"zz-decliner", "grantor", "zz-decliner", "grantor"}; !reflect.DeepEqual(fwd.asked, want) {
		t.Errorf("policy consultation order = %v, want %v (priority before name, decliner first)", fwd.asked, want)
	}
	if fwd.directs != 2 {
		t.Errorf("direct deliveries = %d, want 2 (grantor claimed both)", fwd.directs)
	}
	if fwd.switches == 0 {
		t.Error("guest scheduler never switched to the sibling VM on HLT")
	}
	if fwd.idleA {
		t.Error("direct timer delivery did not wake the idle vCPU")
	}
	// Direct delivery must cost a posted injection plus the wake — far below
	// the forwarded injection path through L1.
	noPolicy, nvms := testStack(t, 2)
	vNo := nvms[1].VCPUs[0]
	exec(t, noPolicy, vNo, Halt())
	forwarded := noPolicy.DeliverTimerIRQ(vNo)
	if fwd.deliverA >= forwarded {
		t.Errorf("direct delivery (%v) should undercut forwarded injection (%v)", fwd.deliverA, forwarded)
	}
}

// TestRegisterInterceptorRejectsDuplicateNames is the determinism-contract
// guard: ties in the chain order by name, so a second interceptor with the
// same name would make consultation order depend on registration order.
func TestRegisterInterceptorRejectsDuplicateNames(t *testing.T) {
	w, _ := testStack(t, 2)
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "dup", priority: 10, log: log})
	if err := w.RegisterInterceptor(&stubInterceptor{name: "dup", priority: 90, log: log}); err == nil {
		t.Fatal("duplicate interceptor name accepted")
	}
	if n := len(w.Interceptors()); n != 1 {
		t.Fatalf("rejected registration still grew the chain to %d", n)
	}
	// A distinct name at the same priority is fine.
	mustRegister(t, w, &stubInterceptor{name: "dup2", priority: 10, log: log})
	if n := len(w.Interceptors()); n != 2 {
		t.Fatalf("chain length = %d, want 2", n)
	}
}
