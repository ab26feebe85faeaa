package check_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildChecked assembles a stack with an invariant checker attached.
func buildChecked(t testing.TB, spec experiment.Spec) (*experiment.Stack, *check.Checker) {
	t.Helper()
	st, err := experiment.Build(spec)
	if err != nil {
		t.Fatalf("Build(%+v): %v", spec, err)
	}
	return st, st.AttachChecker()
}

// drive runs every Table 1 microbenchmark plus the given application
// profiles on a stack — the access mix the paper's evaluation exercises.
func drive(t testing.TB, st *experiment.Stack, txns int, profiles ...workload.Profile) {
	t.Helper()
	for _, m := range workload.Micros() {
		if _, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, 16); err != nil {
			t.Fatalf("%+v: micro %v: %v", st.Spec, m, err)
		}
	}
	for _, p := range profiles {
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
		if _, err := r.Run(txns); err != nil {
			t.Fatalf("%+v: profile %s: %v", st.Spec, p.Name, err)
		}
	}
}

// finish asserts a clean end-of-run sweep, dumping every violation otherwise.
func finish(t testing.TB, spec experiment.Spec, c *check.Checker) {
	t.Helper()
	if err := c.Finish(); err != nil {
		for _, v := range c.Violations() {
			t.Errorf("%+v: %s", spec, v)
		}
		t.Fatalf("%+v: %v", spec, err)
	}
}

// TestZeroViolationsEvaluationConfigs runs the Table 3 and Figure 7–10
// stack configurations under the checker: the full evaluation must complete
// with zero invariant violations.
func TestZeroViolationsEvaluationConfigs(t *testing.T) {
	profiles := workload.Profiles()
	for _, spec := range []experiment.Spec{
		// Table 3 columns.
		{Depth: 1, IO: experiment.IOParavirt},
		{Depth: 2, IO: experiment.IOParavirt},
		{Depth: 2, IO: experiment.IODVH},
		{Depth: 3, IO: experiment.IOParavirt},
		{Depth: 3, IO: experiment.IODVH},
		// Figure 7/9 bars not already covered.
		{Depth: 1, IO: experiment.IOPassthrough},
		{Depth: 2, IO: experiment.IOPassthrough},
		{Depth: 2, IO: experiment.IODVHVP},
		{Depth: 3, IO: experiment.IODVHVP},
		// Figure 10: Xen guest hypervisor.
		{Depth: 2, IO: experiment.IOParavirt, Guest: experiment.GuestXen},
		{Depth: 2, IO: experiment.IODVH, Guest: experiment.GuestXen},
	} {
		st, c := buildChecked(t, spec)
		drive(t, st, 120, profiles...)
		finish(t, spec, c)
	}
}

// TestZeroViolationsTimerFiring exercises the clock-driven path — armed
// timers actually firing and delivering interrupts — under the checker.
func TestZeroViolationsTimerFiring(t *testing.T) {
	for _, spec := range []experiment.Spec{
		{Depth: 2, IO: experiment.IODVH},
		{Depth: 3, IO: experiment.IODVH},
		{Depth: 2, IO: experiment.IOParavirt},
	} {
		st, c := buildChecked(t, spec)
		p, ok := workload.ProfileByName("memcached")
		if !ok {
			p = workload.Profiles()[0]
		}
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
		if _, err := r.RunFor(50_000_000); err != nil {
			t.Fatalf("%+v: RunFor: %v", spec, err)
		}
		finish(t, spec, c)
	}
}

// TestCheckerCatchesCorruptTSCChain is the fault-injection demonstration the
// checker exists for: after a clean run with DVH virtual timers, corrupting
// an intermediate hypervisor's TSC offset must trip the end-of-run chain
// re-verification even though every arm was consistent when it happened.
func TestCheckerCatchesCorruptTSCChain(t *testing.T) {
	spec := experiment.Spec{Depth: 3, IO: experiment.IODVH}
	st, c := buildChecked(t, spec)
	v := st.Target.VCPUs[0]
	if _, err := st.World.Execute(v, hyper.ProgramTimer(1_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("clean run not clean: %v", err)
	}

	// An L1-maintained VMCS in the middle of the chain silently gains a
	// bogus TSC offset, as a buggy guest hypervisor might write.
	mid := v.Parent.VMCS
	mid.SetTSCOffset(mid.TSCOffset() + 12345)

	if err := c.Finish(); err == nil {
		t.Fatal("checker missed the corrupted TSC-offset chain")
	}
	found := false
	for _, viol := range c.Violations() {
		if viol.Invariant == "tsc-offset-chain" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no tsc-offset-chain violation recorded: %v", c.Violations())
	}
}

// TestCheckerCatchesMismatchedRestoreArm: a virtual-timer arm made outside
// any Execute is a restore re-arming a saved deadline (core.RestoreVMState),
// which must equal the LAPIC deadline the restore set. The open frames are
// all that tell such an arm from a guest's timer program, so an arm one
// cycle past the LAPIC deadline must trip timer-arm-lapic.
func TestCheckerCatchesMismatchedRestoreArm(t *testing.T) {
	st, c := buildChecked(t, experiment.Spec{Depth: 2, IO: experiment.IODVH})
	v := st.Target.VCPUs[0]
	const deadline = 5_000_000
	v.LAPIC.SetTSCDeadline(deadline)
	st.World.ArmVirtualTimer(v, deadline+1)
	for _, viol := range c.Violations() {
		if viol.Invariant == "timer-arm-lapic" {
			return
		}
	}
	t.Fatalf("no timer-arm-lapic violation recorded: %v", c.Violations())
}

// TestCheckerCatchesDirtyTrackingSplits breaks the agreement between a VM's
// written set and its EPT dirty bits in both directions, at the top of a
// 12 GiB guest where the sparse written set keeps a region of its own, and
// requires the sweep to name the offending frame each time.
func TestCheckerCatchesDirtyTrackingSplits(t *testing.T) {
	spec := experiment.Spec{Depth: 2, IO: experiment.IOParavirt}
	st, c := buildChecked(t, spec)
	drive(t, st, 60, workload.Profiles()[0])
	vm := st.Target
	top := vm.NumPages - 1
	if err := vm.Memory().Write(top.Base(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("clean run not clean: %v", err)
	}
	caught := func(invariant string, p mem.PFN) {
		t.Helper()
		frame := fmt.Sprintf("%#x", uint64(p))
		for _, viol := range c.Violations() {
			if viol.Invariant == invariant && strings.Contains(viol.Detail, frame) {
				return
			}
		}
		t.Fatalf("no %s violation naming frame %s: %v", invariant, frame, c.Violations())
	}

	// Remapping the written top frame clears its EPT dirty bit.
	w := vm.EPT.Lookup(top, 0)
	vm.EPT.Map(top, w.PFN, mem.PermRWX)
	if err := c.Finish(); err == nil {
		t.Fatal("checker missed a written frame with a clean EPT dirty bit")
	}
	caught("written-ept-dirty", top)

	// A hardware-style write walk dirties a frame the written set never saw.
	vm.EPT.Lookup(top, mem.PermWrite)
	below := top - 1
	if _, err := vm.EnsureMapped(below); err != nil {
		t.Fatal(err)
	}
	vm.EPT.Lookup(below, mem.PermWrite)
	c.Finish()
	caught("ept-dirty-written", below)
}

// TestDVHFeaturesNeverIncreaseExits is the metamorphic property behind
// Figure 8: walking the paper's ablation ladder, each additional DVH feature
// may only remove hardware exits from an identical workload, never add them.
func TestDVHFeaturesNeverIncreaseExits(t *testing.T) {
	ladder := []struct {
		name string
		spec experiment.Spec
	}{
		{"paravirt", experiment.Spec{IO: experiment.IOParavirt}},
		{"DVH-VP", experiment.Spec{IO: experiment.IODVHVP, Features: core.FeaturesVP}},
		{"+vIOMMU-PI", experiment.Spec{IO: experiment.IODVHVP,
			Features: core.FeaturesVP | core.FeatureVIOMMUPostedInterrupts}},
		{"+vIPI", experiment.Spec{IO: experiment.IODVH,
			Features: core.FeaturesVP | core.FeatureVIOMMUPostedInterrupts | core.FeatureVirtualIPIs}},
		{"+vTimer", experiment.Spec{IO: experiment.IODVH,
			Features: core.FeaturesVP | core.FeatureVIOMMUPostedInterrupts | core.FeatureVirtualIPIs |
				core.FeatureVirtualTimers}},
		{"+vIdle", experiment.Spec{IO: experiment.IODVH,
			Features: core.FeaturesVP | core.FeatureVIOMMUPostedInterrupts | core.FeatureVirtualIPIs |
				core.FeatureVirtualTimers | core.FeatureVirtualIdle}},
		{"DVH", experiment.Spec{IO: experiment.IODVH, Features: core.FeaturesAll}},
	}
	for _, depth := range []int{2, 3} {
		prev := uint64(0)
		prevName := ""
		for i, step := range ladder {
			spec := step.spec
			spec.Depth = depth
			st, c := buildChecked(t, spec)
			drive(t, st, 100, workload.Profiles()...)
			finish(t, spec, c)
			exits := st.Machine.Stats.TotalHardwareExits()
			if i > 0 && exits > prev {
				t.Errorf("depth %d: %s takes %d hardware exits, more than %s's %d",
					depth, step.name, exits, prevName, prev)
			}
			prev, prevName = exits, step.name
		}
	}
}

// TestDeeperNestingNeverReducesCycles: adding a virtualization level can
// only add transition work; per-transaction cost must be monotone in depth
// for a fixed I/O mode and workload.
func TestDeeperNestingNeverReducesCycles(t *testing.T) {
	for _, tc := range []struct {
		io     experiment.IOMode
		depths []int
	}{
		{experiment.IOParavirt, []int{1, 2, 3}},
		{experiment.IODVH, []int{2, 3, 4}},
	} {
		for _, p := range workload.Profiles() {
			prev := 0.0
			for _, depth := range tc.depths {
				spec := experiment.Spec{Depth: depth, IO: tc.io}
				st, c := buildChecked(t, spec)
				r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
				res, err := r.Run(100)
				if err != nil {
					t.Fatalf("%+v %s: %v", spec, p.Name, err)
				}
				finish(t, spec, c)
				if res.CyclesPerTxn < prev {
					t.Errorf("%s/%v: depth %d is cheaper per txn (%.0f) than depth %d (%.0f)",
						p.Name, tc.io, depth, res.CyclesPerTxn, depth-1, prev)
				}
				prev = res.CyclesPerTxn
			}
		}
	}
}

// TestRandomCellsZeroViolations samples the (depth, I/O, guest, workload)
// space with a seeded generator; every sampled cell must run violation-free.
func TestRandomCellsZeroViolations(t *testing.T) {
	rng := sim.NewRNG(0x5eed)
	profiles := workload.Profiles()
	guests := []experiment.GuestKind{experiment.GuestKVM, experiment.GuestXen, experiment.GuestHyperV}
	for i := 0; i < 10; i++ {
		depth := 1 + rng.Intn(3)
		var io experiment.IOMode
		switch depth {
		case 1:
			io = []experiment.IOMode{experiment.IOParavirt, experiment.IOPassthrough}[rng.Intn(2)]
		default:
			io = []experiment.IOMode{experiment.IOParavirt, experiment.IOPassthrough,
				experiment.IODVHVP, experiment.IODVH}[rng.Intn(4)]
		}
		spec := experiment.Spec{Depth: depth, IO: io, Guest: guests[rng.Intn(len(guests))]}
		st, c := buildChecked(t, spec)
		drive(t, st, 40+rng.Intn(80), profiles[rng.Intn(len(profiles))])
		finish(t, spec, c)
	}
}
