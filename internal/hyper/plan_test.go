package hyper

import (
	"reflect"
	"testing"

	"repro/internal/apic"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// capsStack is testStack with an explicit host capability word, for the
// no-shadowing arm of the equivalence matrix.
func capsStack(t testing.TB, depth int, caps vmx.Caps) (*World, []*VM) {
	t.Helper()
	m := machine.MustNew(machine.Config{
		Name: "plan-test", CPUs: 10, MemoryBytes: 64 << 30, Caps: caps, NICVFs: 4,
	})
	host := NewHost(m, KVM{})
	w := NewWorld(host)
	var vms []*VM
	h := host
	memBytes := uint64(16 << 30)
	for lvl := 1; lvl <= depth; lvl++ {
		vm, err := h.CreateVM(VMConfig{Name: vmName(lvl), VCPUs: 4, MemBytes: memBytes})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
		if lvl < depth {
			h = vm.InstallHypervisor(KVM{}, "kvm-L"+string(rune('0'+lvl)))
			memBytes -= 4 << 30
		}
	}
	return w, vms
}

// planMatrixOps is the operation mix the equivalence matrix runs twice per
// world: the repeat guarantees the cached world is replaying compiled plans,
// not just compiling them.
func planMatrixOps(vms []*VM, dev *AssignedDevice) []Op {
	ops := []Op{
		Hypercall(),
		ProgramTimer(50_000),
		SendIPI(1, apic.VectorReschedule),
		EOI(),
		Hypercall(),
		SendIPI(1, apic.VectorReschedule),
	}
	if dev != nil {
		ops = append(ops, DevNotify(dev.Doorbell), DevNotify(dev.Doorbell))
	}
	return ops
}

// runPlanMatrix drives one world through the op mix and returns the per-op
// costs. Both cache modes must produce identical costs AND identical world
// state (stats, trace) afterwards.
func runPlanMatrix(t *testing.T, w *World, vms []*VM, dev *AssignedDevice) []sim.Cycles {
	t.Helper()
	v := vms[len(vms)-1].VCPUs[0]
	var costs []sim.Cycles
	for _, op := range planMatrixOps(vms, dev) {
		c, err := w.Execute(v, op)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	return costs
}

// TestForwardPlanReplayEquivalence is the heart of the cache's correctness
// claim: for every depth and capability configuration, a world replaying
// compiled plans and a world re-running the live recursion produce identical
// per-op costs, identical stats tables (exit counts by reason and handler
// level, per-level cycles, named counters) and an identical trace timeline.
func TestForwardPlanReplayEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
		caps  vmx.Caps
	}{
		{"L2", 2, vmx.HardwareCaps},
		{"L3", 3, vmx.HardwareCaps},
		{"L4", 4, vmx.HardwareCaps},
		{"L2-noshadow", 2, vmx.HardwareCaps.Without(vmx.CapVMCSShadowing)},
		{"L3-noshadow", 3, vmx.HardwareCaps.Without(vmx.CapVMCSShadowing)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(cache bool) (*World, []*VM, *AssignedDevice) {
				w, vms := capsStack(t, tc.depth, tc.caps)
				w.SetPlanCache(cache)
				w.Tracer = trace.NewRecorder(4096)
				var dev *AssignedDevice
				for _, vm := range vms {
					var err error
					if dev, err = AttachParavirtNet(vm, "net"); err != nil {
						t.Fatal(err)
					}
				}
				return w, vms, dev
			}
			cw, cvms, cdev := build(true)
			lw, lvms, ldev := build(false)

			cCosts := runPlanMatrix(t, cw, cvms, cdev)
			lCosts := runPlanMatrix(t, lw, lvms, ldev)

			if !reflect.DeepEqual(cCosts, lCosts) {
				t.Errorf("per-op costs diverge:\ncached: %v\nlive:   %v", cCosts, lCosts)
			}
			cs, ls := cw.Host.Machine.Stats, lw.Host.Machine.Stats
			if cs.HardwareExits != ls.HardwareExits {
				t.Error("HardwareExits tables diverge")
			}
			if cs.HandledExits != ls.HandledExits {
				t.Error("HandledExits tables diverge")
			}
			if cs.LevelCycles != ls.LevelCycles {
				t.Error("LevelCycles diverge")
			}
			if cs.GuestCycles != ls.GuestCycles {
				t.Error("GuestCycles diverge")
			}
			if cs.String() != ls.String() {
				t.Errorf("stats reports diverge:\n--- cached ---\n%s--- live ---\n%s", cs, ls)
			}
			if !reflect.DeepEqual(cw.Tracer.Events(), lw.Tracer.Events()) {
				t.Errorf("trace timelines diverge:\n--- cached ---\n%s--- live ---\n%s",
					cw.Tracer.Timeline(), lw.Tracer.Timeline())
			}
			if cw.Plan.Replays == 0 {
				t.Error("cached world never replayed a plan — the test exercised nothing")
			}
			if lw.Plan.Compiles != 0 || lw.Plan.Replays != 0 {
				t.Errorf("live world touched the plan cache: %+v", lw.Plan)
			}
		})
	}
}

// TestForwardPlanSteadyStateCaching pins the cache's amortization contract:
// after the first exit of a given (reason, owner) shape, repeats replay
// without recompiling.
func TestForwardPlanSteadyStateCaching(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	exec(t, w, v, Hypercall())
	compiles := w.Plan.Compiles
	if compiles == 0 {
		t.Fatal("first forwarded exit compiled no plan")
	}
	first := exec(t, w, v, Hypercall())
	replays := w.Plan.Replays
	for i := 0; i < 50; i++ {
		if got := exec(t, w, v, Hypercall()); got != first {
			t.Fatalf("replayed hypercall cost %v, want stable %v", got, first)
		}
	}
	if w.Plan.Compiles != compiles {
		t.Errorf("steady-state repeats recompiled: %d -> %d compiles", compiles, w.Plan.Compiles)
	}
	if w.Plan.Replays <= replays {
		t.Error("steady-state repeats did not replay")
	}
}

// TestForwardPlanInvalidation mutates each input of the plan key mid-run —
// cost model, host caps, topology — and requires recompilation with results
// identical to a fresh world built in the mutated configuration.
func TestForwardPlanInvalidation(t *testing.T) {
	t.Run("cost-model", func(t *testing.T) {
		w, vms := testStack(t, 2)
		v := vms[1].VCPUs[0]
		before := exec(t, w, v, Hypercall())
		exec(t, w, v, Hypercall())

		costs := w.Costs
		costs.ReflectWork *= 2
		w.SetCosts(costs)
		invalidations := w.Plan.Invalidations
		after := exec(t, w, v, Hypercall())
		if after <= before {
			t.Errorf("doubling ReflectWork left forwarded cost at %v (was %v): stale plan replayed", after, before)
		}
		if w.Plan.Invalidations != invalidations+1 {
			t.Errorf("SetCosts did not flush the plan table (invalidations %d -> %d)", invalidations, w.Plan.Invalidations)
		}

		// A live (uncached) world with the same mutated model must agree.
		ref, refVMs := testStack(t, 2)
		ref.SetPlanCache(false)
		ref.SetCosts(costs)
		if want := exec(t, ref, refVMs[1].VCPUs[0], Hypercall()); after != want {
			t.Errorf("recompiled cost %v != live cost %v under mutated model", after, want)
		}
	})

	t.Run("host-caps", func(t *testing.T) {
		w, vms := testStack(t, 2)
		v := vms[1].VCPUs[0]
		shadowed := exec(t, w, v, Hypercall())
		exec(t, w, v, Hypercall())

		w.SetHostCaps(w.Host.Caps.Without(vmx.CapVMCSShadowing))
		unshadowed := exec(t, w, v, Hypercall())
		if unshadowed < 3*shadowed {
			t.Errorf("dropping VMCS shadowing mid-run: cost %v vs shadowed %v — stale plan replayed", unshadowed, shadowed)
		}
		// And back: re-granting shadowing must restore the original cost.
		w.SetHostCaps(w.Host.Caps.With(vmx.CapVMCSShadowing))
		if again := exec(t, w, v, Hypercall()); again != shadowed {
			t.Errorf("re-enabling shadowing: cost %v, want %v", again, shadowed)
		}
	})

	t.Run("viommu-caps", func(t *testing.T) {
		// Regression: ProvideVIOMMU rewrites capability words after setup
		// (the DVH enablement path) and must bump CapsGen like SetHostCaps
		// does — nvlint's cachegen rule caught it replaying stale plans.
		w, vms := testStack(t, 2)
		v := vms[1].VCPUs[0]
		exec(t, w, v, Hypercall())
		exec(t, w, v, Hypercall())
		compiles := w.Plan.Compiles

		vms[0].ProvideVIOMMU(true)
		exec(t, w, v, Hypercall())
		if w.Plan.Compiles == compiles {
			t.Errorf("vIOMMU grant did not recompile plans (compiles stuck at %d); CapsGen bump missing", compiles)
		}
	})

	t.Run("topology", func(t *testing.T) {
		w, vms := testStack(t, 2)
		v := vms[1].VCPUs[0]
		before := exec(t, w, v, Hypercall())
		compiles := w.Plan.Compiles

		// A topology mutation (new sibling VM) moves TopoGen; the next exit
		// must recompile — same shape here, so the same cost, but freshly.
		if _, err := vms[0].GuestHyp.CreateVM(VMConfig{Name: "L2-sibling", VCPUs: 1, MemBytes: 1 << 30}); err != nil {
			t.Fatal(err)
		}
		after := exec(t, w, v, Hypercall())
		if after != before {
			t.Errorf("sibling VM changed forwarded cost: %v -> %v", before, after)
		}
		if w.Plan.Compiles != compiles+1 {
			t.Errorf("topology change did not recompile (compiles %d -> %d)", compiles, w.Plan.Compiles)
		}
	})
}

// slowPersonality is a KVM variant with a heavier reflect path, for the
// personality-pinning test.
type slowPersonality struct{ KVM }

func (slowPersonality) Name() string { return "slow" }
func (slowPersonality) ReflectScript() Script {
	return Script{VMAccesses: 160, PrivOps: 20, SoftWork: 1400, Resume: true}
}

// TestForwardPlanPersonalityPinning swaps a guest hypervisor's personality in
// place — a mutation no generation counter observes — and requires the plan's
// own personality pins to force recompilation rather than replay a stale
// tree.
func TestForwardPlanPersonalityPinning(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	before := exec(t, w, v, Hypercall())
	exec(t, w, v, Hypercall())

	vms[0].GuestHyp.Personality = slowPersonality{}
	after := exec(t, w, v, Hypercall())
	if after <= before {
		t.Errorf("slower L1 personality left L3 hypercall at %v (was %v): stale plan replayed", after, before)
	}

	ref, refVMs := testStack(t, 3)
	ref.SetPlanCache(false)
	refVMs[0].GuestHyp.Personality = slowPersonality{}
	if want := exec(t, ref, refVMs[2].VCPUs[0], Hypercall()); after != want {
		t.Errorf("recompiled cost %v != live cost %v under swapped personality", after, want)
	}
}

// TestPlanCacheEnvDefault pins the escape hatch's parsing: empty and "0"
// leave the cache on, anything else turns it off.
func TestPlanCacheEnvDefault(t *testing.T) {
	host := NewHost(machine.MustNew(machine.Config{Name: "env", CPUs: 2, MemoryBytes: 1 << 30}), KVM{})
	for _, tc := range []struct {
		val  string
		want bool
	}{{"", true}, {"0", true}, {"1", false}, {"yes", false}} {
		t.Setenv(NoPlanCacheEnv, tc.val)
		if got := NewWorld(host).PlanCacheEnabled(); got != tc.want {
			t.Errorf("%s=%q: PlanCacheEnabled() = %v, want %v", NoPlanCacheEnv, tc.val, got, tc.want)
		}
	}
}

// TestForwardPlanReplayAllocFree proves the acceptance criterion directly:
// once a plan is compiled, replaying it allocates nothing.
func TestForwardPlanReplayAllocFree(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	exec(t, w, v, Hypercall()) // compile
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := w.Execute(v, Hypercall()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state replay allocates %.1f times per op, want 0", allocs)
	}
	if w.Plan.Replays < 200 {
		t.Errorf("alloc loop replayed only %d times — not on the replay path", w.Plan.Replays)
	}
}

// runDeliveryMatrix drives one world through a delivery-heavy mix — timer
// injections to a running and to a parked vCPU, device RX cascades, and IPIs
// waking an idle sibling — and returns the per-step costs. Both cache modes
// must produce identical costs AND identical world state afterwards.
func runDeliveryMatrix(t *testing.T, w *World, vms []*VM, dev *AssignedDevice) []sim.Cycles {
	t.Helper()
	inner := vms[len(vms)-1]
	v, sib := inner.VCPUs[0], inner.VCPUs[1]
	var costs []sim.Cycles
	step := func(c sim.Cycles, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	// Timer injection to a running vCPU (no wake), twice: the repeat
	// guarantees the second goes through replay, not compile.
	step(w.DeliverTimerIRQ(v))
	step(w.DeliverTimerIRQ(v))
	// Park the vCPU, then deliver: injection plus the wake ladder.
	step(w.Execute(v, Halt()))
	step(w.DeliverTimerIRQ(v))
	// Inbound device data: the RX cascade plus the device-IRQ injection.
	step(w.DeviceRX(dev, v))
	step(w.DeviceRX(dev, v))
	// IPIs to an idle sibling: the wake path from the IPI owner's effects.
	step(w.Execute(sib, Halt()))
	step(w.Execute(v, SendIPI(1, apic.VectorReschedule)))
	step(w.Execute(sib, Halt()))
	step(w.Execute(v, SendIPI(1, apic.VectorReschedule)))
	return costs
}

// TestDeliveryPlanReplayEquivalence is the delivery-side counterpart of
// TestForwardPlanReplayEquivalence: for every depth and capability
// configuration, a world replaying compiled delivery plans and a world
// running the live recursions produce identical per-step costs, identical
// stats tables and an identical trace timeline.
func TestDeliveryPlanReplayEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
		caps  vmx.Caps
	}{
		{"L2", 2, vmx.HardwareCaps},
		{"L3", 3, vmx.HardwareCaps},
		{"L4", 4, vmx.HardwareCaps},
		{"L2-noshadow", 2, vmx.HardwareCaps.Without(vmx.CapVMCSShadowing)},
		{"L3-noshadow", 3, vmx.HardwareCaps.Without(vmx.CapVMCSShadowing)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(cache bool) (*World, []*VM, *AssignedDevice) {
				w, vms := capsStack(t, tc.depth, tc.caps)
				w.SetPlanCache(cache)
				w.Tracer = trace.NewRecorder(8192)
				var dev *AssignedDevice
				for _, vm := range vms {
					var err error
					if dev, err = AttachParavirtNet(vm, "net"); err != nil {
						t.Fatal(err)
					}
				}
				return w, vms, dev
			}
			cw, cvms, cdev := build(true)
			lw, lvms, ldev := build(false)

			cCosts := runDeliveryMatrix(t, cw, cvms, cdev)
			lCosts := runDeliveryMatrix(t, lw, lvms, ldev)

			if !reflect.DeepEqual(cCosts, lCosts) {
				t.Errorf("per-step costs diverge:\ncached: %v\nlive:   %v", cCosts, lCosts)
			}
			cs, ls := cw.Host.Machine.Stats, lw.Host.Machine.Stats
			if cs.String() != ls.String() {
				t.Errorf("stats reports diverge:\n--- cached ---\n%s--- live ---\n%s", cs, ls)
			}
			if !reflect.DeepEqual(cw.Tracer.Events(), lw.Tracer.Events()) {
				t.Errorf("trace timelines diverge:\n--- cached ---\n%s--- live ---\n%s",
					cw.Tracer.Timeline(), lw.Tracer.Timeline())
			}
			if cw.Plan.DeliveryReplays == 0 {
				t.Error("cached world never replayed a delivery plan — the test exercised nothing")
			}
			if lw.Plan.DeliveryCompiles != 0 || lw.Plan.DeliveryReplays != 0 {
				t.Errorf("live world touched the plan cache: %+v", lw.Plan)
			}
		})
	}
}

// TestDeliveryPlanSteadyStateCaching pins the amortization contract: after
// the first delivery of a given shape, repeats replay without recompiling.
func TestDeliveryPlanSteadyStateCaching(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	deliver := func() sim.Cycles {
		c, err := w.DeliverTimerIRQ(v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	deliver()
	compiles := w.Plan.DeliveryCompiles
	if compiles == 0 {
		t.Fatal("first timer delivery compiled no delivery plan")
	}
	first := deliver()
	replays := w.Plan.DeliveryReplays
	for i := 0; i < 50; i++ {
		if got := deliver(); got != first {
			t.Fatalf("replayed timer delivery cost %v, want stable %v", got, first)
		}
	}
	if w.Plan.DeliveryCompiles != compiles {
		t.Errorf("steady-state repeats recompiled: %d -> %d delivery compiles", compiles, w.Plan.DeliveryCompiles)
	}
	if w.Plan.DeliveryReplays <= replays {
		t.Error("steady-state repeats did not replay")
	}
}

// timerDelivery is the test shorthand for one timer delivery's cost.
func timerDelivery(t *testing.T, w *World, v *VCPU) sim.Cycles {
	t.Helper()
	c, err := w.DeliverTimerIRQ(v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDeliveryPlanInvalidation mutates each input of a delivery plan's key
// mid-run — cost model, host caps, profile swap, topology — and requires
// recompilation with results identical to a fresh world built in the mutated
// configuration.
func TestDeliveryPlanInvalidation(t *testing.T) {
	t.Run("cost-model", func(t *testing.T) {
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		costs := w.Costs
		costs.ReflectWork *= 2
		w.SetCosts(costs)
		invalidations := w.Plan.Invalidations
		after := timerDelivery(t, w, v)
		if after <= before {
			t.Errorf("doubling ReflectWork left timer delivery at %v (was %v): stale delivery plan replayed", after, before)
		}
		if w.Plan.Invalidations != invalidations+1 {
			t.Errorf("SetCosts did not flush the plan table (invalidations %d -> %d)", invalidations, w.Plan.Invalidations)
		}

		ref, refVMs := testStack(t, 3)
		ref.SetPlanCache(false)
		ref.SetCosts(costs)
		if want := timerDelivery(t, ref, refVMs[2].VCPUs[0]); after != want {
			t.Errorf("recompiled delivery cost %v != live cost %v under mutated model", after, want)
		}
	})

	t.Run("host-caps", func(t *testing.T) {
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		shadowed := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		w.SetHostCaps(w.Host.Caps.Without(vmx.CapVMCSShadowing))
		unshadowed := timerDelivery(t, w, v)
		if unshadowed <= shadowed {
			t.Errorf("dropping VMCS shadowing mid-run: delivery cost %v vs shadowed %v — stale plan replayed", unshadowed, shadowed)
		}
		w.SetHostCaps(w.Host.Caps.With(vmx.CapVMCSShadowing))
		if again := timerDelivery(t, w, v); again != shadowed {
			t.Errorf("re-enabling shadowing: delivery cost %v, want %v", again, shadowed)
		}
	})

	t.Run("profile-swap", func(t *testing.T) {
		// SetProfile replaces the cost model AND the capability word in one
		// step; a delivery plan bakes both in, so the swap must recompile.
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		costs := w.Costs
		costs.HwExit += 777
		w.SetProfile(costs, w.Host.Caps.Without(vmx.CapVMCSShadowing))
		after := timerDelivery(t, w, v)
		if after <= before {
			t.Errorf("profile swap left timer delivery at %v (was %v): stale delivery plan replayed", after, before)
		}

		ref, refVMs := testStack(t, 3)
		ref.SetPlanCache(false)
		ref.SetProfile(costs, ref.Host.Caps.Without(vmx.CapVMCSShadowing))
		if want := timerDelivery(t, ref, refVMs[2].VCPUs[0]); after != want {
			t.Errorf("recompiled delivery cost %v != live cost %v under swapped profile", after, want)
		}
	})

	t.Run("topology", func(t *testing.T) {
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		compiles := w.Plan.DeliveryCompiles

		if _, err := vms[0].GuestHyp.CreateVM(VMConfig{Name: "L2-sibling", VCPUs: 1, MemBytes: 1 << 30}); err != nil {
			t.Fatal(err)
		}
		after := timerDelivery(t, w, v)
		if after != before {
			t.Errorf("sibling VM changed delivery cost: %v -> %v", before, after)
		}
		if w.Plan.DeliveryCompiles != compiles+1 {
			t.Errorf("topology change did not recompile (delivery compiles %d -> %d)", compiles, w.Plan.DeliveryCompiles)
		}
	})
}

// injectorPersonality is a KVM variant with a heavier injection path, for the
// inject-script arm of the pinning test.
type injectorPersonality struct{ KVM }

func (injectorPersonality) Name() string { return "heavy-inject" }
func (injectorPersonality) InjectScript() Script {
	return Script{VMAccesses: 48, PrivOps: 6, SoftWork: 900, Resume: true}
}

// TestDeliveryPlanPersonalityPinning swaps guest-hypervisor personalities in
// place — mutations no generation counter observes — and requires the plan's
// personality pins to force recompilation.
func TestDeliveryPlanPersonalityPinning(t *testing.T) {
	t.Run("reflect-path", func(t *testing.T) {
		// A heavier L1 reflect script changes the intermediate levels of the
		// injection walk: caught by the pers[] pinning.
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		vms[0].GuestHyp.Personality = slowPersonality{}
		after := timerDelivery(t, w, v)
		if after <= before {
			t.Errorf("slower L1 personality left timer delivery at %v (was %v): stale delivery plan replayed", after, before)
		}

		ref, refVMs := testStack(t, 3)
		ref.SetPlanCache(false)
		refVMs[0].GuestHyp.Personality = slowPersonality{}
		if want := timerDelivery(t, ref, refVMs[2].VCPUs[0]); after != want {
			t.Errorf("recompiled delivery cost %v != live cost %v under swapped personality", after, want)
		}
	})

	t.Run("inject-script", func(t *testing.T) {
		// Swapping the injector's own personality changes the injection
		// script: the plan pins the injector level's personality too.
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		before := timerDelivery(t, w, v)
		timerDelivery(t, w, v)

		vms[1].GuestHyp.Personality = injectorPersonality{}
		after := timerDelivery(t, w, v)
		if after <= before {
			t.Errorf("heavier inject script left timer delivery at %v (was %v): stale delivery plan replayed", after, before)
		}

		ref, refVMs := testStack(t, 3)
		ref.SetPlanCache(false)
		refVMs[1].GuestHyp.Personality = injectorPersonality{}
		if want := timerDelivery(t, ref, refVMs[2].VCPUs[0]); after != want {
			t.Errorf("recompiled delivery cost %v != live cost %v under swapped inject script", after, want)
		}
	})
}

// TestDeliveryPlanWakeKeyedByIdleOwner pins the wake ladder's key: the
// idle-owner level is recomputed on every wake, so a control change that
// moves HLT interposition (DVH virtual idle) selects a different plan slot
// instead of replaying the old ladder.
func TestDeliveryPlanWakeKeyedByIdleOwner(t *testing.T) {
	wakeCost := func(virtualIdle bool) sim.Cycles {
		w, vms := testStack(t, 3)
		v := vms[2].VCPUs[0]
		exec(t, w, v, Halt())
		if virtualIdle {
			// Yield HLT interposition at the innermost guest hypervisor:
			// the wake ladder shortens. Flipping the control moves no
			// generation — only the live idle-owner recomputation sees it.
			v.VMCS.ClearControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
		}
		c, err := w.WakeIfIdle(v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	full, short := wakeCost(false), wakeCost(true)
	if short >= full {
		t.Errorf("yielding HLT interposition did not shorten the wake ladder: %v >= %v", short, full)
	}
}

// TestDeliveryPlanReplayAllocFree proves the acceptance criterion on the
// delivery side: once compiled, replayed delivery paths allocate nothing.
func TestDeliveryPlanReplayAllocFree(t *testing.T) {
	w, vms := testStack(t, 3)
	v := vms[2].VCPUs[0]
	var dev *AssignedDevice
	for _, vm := range vms {
		var err error
		if dev, err = AttachParavirtNet(vm, "net"); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("timer-injection", func(t *testing.T) {
		timerDelivery(t, w, v) // compile
		replays := w.Plan.DeliveryReplays
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := w.DeliverTimerIRQ(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state timer delivery allocates %.1f times per op, want 0", allocs)
		}
		if w.Plan.DeliveryReplays < replays+200 {
			t.Error("alloc loop did not stay on the delivery replay path")
		}
	})

	t.Run("device-rx", func(t *testing.T) {
		if _, err := w.DeviceRX(dev, v); err != nil { // compile
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := w.DeviceRX(dev, v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state device RX allocates %.1f times per op, want 0", allocs)
		}
	})

	t.Run("wake", func(t *testing.T) {
		exec(t, w, v, Halt())
		if _, err := w.WakeIfIdle(v); err != nil { // compile
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			v.Idle = true
			if _, err := w.WakeIfIdle(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state wake allocates %.1f times per op, want 0", allocs)
		}
	})
}

// TestPlanSharedAcrossVCPUs pins the one-table-per-World layout: a plan reads
// no vCPU, so a second vCPU of the same VM replays the plans the first one
// compiled — its first forwarded exit and its first timer delivery compile
// nothing.
func TestPlanSharedAcrossVCPUs(t *testing.T) {
	w, vms := testStack(t, 3)
	v0, v1 := vms[2].VCPUs[0], vms[2].VCPUs[1]
	hypercall := exec(t, w, v0, Hypercall())
	timer := timerDelivery(t, w, v0)
	warm := w.Plan
	if warm.Compiles == 0 || warm.DeliveryCompiles == 0 {
		t.Fatalf("first vCPU compiled no plans: %+v", warm)
	}

	if got := exec(t, w, v1, Hypercall()); got != hypercall {
		t.Errorf("second vCPU's hypercall cost %v, first vCPU's %v", got, hypercall)
	}
	if got := timerDelivery(t, w, v1); got != timer {
		t.Errorf("second vCPU's timer delivery cost %v, first vCPU's %v", got, timer)
	}
	if w.Plan.Compiles != warm.Compiles || w.Plan.DeliveryCompiles != warm.DeliveryCompiles {
		t.Errorf("second vCPU recompiled: %+v -> %+v", warm, w.Plan)
	}
	if w.Plan.Replays != warm.Replays+1 || w.Plan.DeliveryReplays != warm.DeliveryReplays+1 {
		t.Errorf("second vCPU did not replay exactly one forward and one delivery plan: %+v -> %+v", warm, w.Plan)
	}
}

// heavyPersonality is a KVM variant whose exit handlers and injection path
// both cost more, so a plan compiled under one sibling would misprice the
// other's forwarded exits and timer deliveries.
type heavyPersonality struct{ KVM }

func (heavyPersonality) Name() string { return "heavy" }
func (heavyPersonality) HandlerScript(r vmx.ExitReason) Script {
	s := KVM{}.HandlerScript(r)
	s.PrivOps += 4
	s.SoftWork += 300
	return s
}
func (heavyPersonality) InjectScript() Script {
	return Script{VMAccesses: 40, PrivOps: 6, SoftWork: 700, Resume: true}
}

// siblingWorld builds one World holding two L1 VMs whose guest hypervisors
// run different personalities, each hosting an L2 VM with a paravirtual NIC
// cascade: the shape in which one per-World table serves plans pinned to two
// different stacks.
func siblingWorld(t *testing.T, cache bool) (*World, []*VM, []*AssignedDevice) {
	t.Helper()
	w := NewWorld(NewHost(machine.MustNew(machine.Config{
		Name: "siblings", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps, NICVFs: 4,
	}), KVM{}))
	w.SetPlanCache(cache)
	w.Tracer = trace.NewRecorder(8192)
	var l2s []*VM
	var devs []*AssignedDevice
	for i, p := range []Personality{KVM{}, heavyPersonality{}} {
		suffix := string(rune('a' + i))
		l1, err := w.Host.CreateVM(VMConfig{Name: "L1-" + suffix, VCPUs: 2, MemBytes: 16 << 30})
		if err != nil {
			t.Fatal(err)
		}
		l2, err := l1.InstallHypervisor(p, p.Name()+"-"+suffix).CreateVM(VMConfig{Name: "L2-" + suffix, VCPUs: 2, MemBytes: 4 << 30})
		if err != nil {
			t.Fatal(err)
		}
		var dev *AssignedDevice
		for _, vm := range []*VM{l1, l2} {
			if dev, err = AttachParavirtNet(vm, "net"); err != nil {
				t.Fatal(err)
			}
		}
		l2s, devs = append(l2s, l2), append(devs, dev)
	}
	return w, l2s, devs
}

// TestPlanSiblingPersonalitiesCachedEqualsLive interleaves the two siblings'
// traffic — forwarded exits, timer injections, RX cascades, halts and IPI
// wakes — so every shared slot alternates between plans pinned to different
// personalities, and requires the cached World to match a live one exactly.
func TestPlanSiblingPersonalitiesCachedEqualsLive(t *testing.T) {
	run := func(w *World, l2s []*VM, devs []*AssignedDevice) []sim.Cycles {
		var costs []sim.Cycles
		step := func(c sim.Cycles, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			costs = append(costs, c)
		}
		for round := 0; round < 3; round++ {
			for i, vm := range l2s {
				v, sib := vm.VCPUs[0], vm.VCPUs[1]
				step(w.Execute(v, Hypercall()))
				step(w.DeliverTimerIRQ(v))
				step(w.DeviceRX(devs[i], v))
				step(w.Execute(sib, Halt()))
				step(w.Execute(v, SendIPI(1, apic.VectorReschedule)))
			}
		}
		return costs
	}
	cw, cl2s, cdevs := siblingWorld(t, true)
	lw, ll2s, ldevs := siblingWorld(t, false)
	cached, live := run(cw, cl2s, cdevs), run(lw, ll2s, ldevs)

	if !reflect.DeepEqual(cached, live) {
		t.Errorf("per-step costs diverge:\ncached: %v\nlive:   %v", cached, live)
	}
	if cached[0] == cached[5] || cached[1] == cached[6] {
		t.Errorf("siblings' hypercall (%v vs %v) or timer delivery (%v vs %v) cost the same: the personalities do not differ where the plans do",
			cached[0], cached[5], cached[1], cached[6])
	}
	if cs, ls := cw.Host.Machine.Stats.String(), lw.Host.Machine.Stats.String(); cs != ls {
		t.Errorf("stats reports diverge:\n--- cached ---\n%s--- live ---\n%s", cs, ls)
	}
	if !reflect.DeepEqual(cw.Tracer.Events(), lw.Tracer.Events()) {
		t.Errorf("trace timelines diverge:\n--- cached ---\n%s--- live ---\n%s", cw.Tracer.Timeline(), lw.Tracer.Timeline())
	}
	if cw.Plan.Replays == 0 || cw.Plan.DeliveryReplays == 0 {
		t.Errorf("cached world replayed nothing: %+v", cw.Plan)
	}
}
