package profile_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/profile"
	"repro/internal/workload"
)

// This file is the `make profiles` sweep: every registered calibration
// profile is (a) anchor-validated against live measurement, not just the
// closed-form identities, (b) run through the invariant checker over the
// evaluation configurations, and (c) checked for the metamorphic properties
// the paper's argument rests on — exit multiplication and the DVH reduction —
// which must hold under every calibration while the absolute cycles shift.

// sweepSpecs is the per-profile configuration matrix: the Table 3 columns
// plus passthrough, under each guest-visible I/O regime.
func sweepSpecs(name string) []experiment.Spec {
	return []experiment.Spec{
		{Depth: 1, IO: experiment.IOParavirt, Profile: name},
		{Depth: 2, IO: experiment.IOParavirt, Profile: name},
		{Depth: 2, IO: experiment.IODVH, Profile: name},
		{Depth: 2, IO: experiment.IOPassthrough, Profile: name},
		{Depth: 3, IO: experiment.IODVH, Profile: name},
	}
}

// TestAnchorsMeasuredLive closes the loop between assertion and simulation:
// each profile's Table 3 "VM"-column anchors must be *measured* on a
// single-level stack built under that profile — the simulator reproduces the
// anchor, not merely the formula.
func TestAnchorsMeasuredLive(t *testing.T) {
	for _, p := range profile.All() {
		t.Run(p.Name, func(t *testing.T) {
			st, err := experiment.Build(experiment.Spec{Depth: 1, IO: experiment.IOParavirt, Profile: p.Name})
			if err != nil {
				t.Fatal(err)
			}
			v := st.Target.VCPUs[0]
			for _, m := range workload.Micros() {
				got, err := workload.RunMicro(st.World, v, m, st.Net, 4)
				if err != nil {
					t.Fatalf("%v: %v", m, err)
				}
				anchor := fmt.Sprintf("%s(VM)", m)
				want, ok := profile.AnchorValue(p.Costs, anchor)
				if !ok {
					t.Fatalf("no anchor identity for micro %v", m)
				}
				if got != want {
					t.Errorf("measured %v = %v cycles, anchor %s asserts %v", m, got, anchor, want)
				}
			}
		})
	}
}

// TestCheckerSweepEveryProfile runs the internal/check invariant sweep under
// every registered profile: timer arms matching the LAPIC deadline, dirty
// tracking and the end-of-run chain verification are engine properties, so
// they must hold for any calibration the engine is pointed at.
func TestCheckerSweepEveryProfile(t *testing.T) {
	apps := []string{"Netperf RR", "MySQL"}
	for _, p := range profile.All() {
		t.Run(p.Name, func(t *testing.T) {
			for _, spec := range sweepSpecs(p.Name) {
				st, err := experiment.Build(spec)
				if err != nil {
					t.Fatalf("Build(%+v): %v", spec, err)
				}
				c := check.Attach(st.World)
				v := st.Target.VCPUs[0]
				for _, m := range workload.Micros() {
					if _, err := workload.RunMicro(st.World, v, m, st.Net, 8); err != nil {
						t.Fatalf("%+v: micro %v: %v", spec, m, err)
					}
				}
				for _, name := range apps {
					wp, ok := workload.ProfileByName(name)
					if !ok {
						t.Fatalf("workload %q missing", name)
					}
					r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: wp}
					if _, err := r.Run(60); err != nil {
						t.Fatalf("%+v: workload %s: %v", spec, name, err)
					}
				}
				if err := c.Finish(); err != nil {
					for _, viol := range c.Violations() {
						t.Errorf("%s %+v: %s", p.Name, spec, viol)
					}
					t.Fatalf("%s %+v: %v", p.Name, spec, err)
				}
			}
		})
	}
}

// TestTimerFiringEveryProfile exercises the clock-driven path (armed timers
// firing mid-run) once per profile, under the checker.
func TestTimerFiringEveryProfile(t *testing.T) {
	for _, p := range profile.All() {
		spec := experiment.Spec{Depth: 2, IO: experiment.IODVH, Profile: p.Name}
		st, err := experiment.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		c := check.Attach(st.World)
		wp, ok := workload.ProfileByName("Memcached")
		if !ok {
			t.Fatal("Memcached workload missing")
		}
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: wp}
		if _, err := r.RunFor(20_000_000); err != nil {
			t.Fatalf("%s: RunFor: %v", p.Name, err)
		}
		if err := c.Finish(); err != nil {
			t.Fatalf("%s: %v (%v)", p.Name, err, c.Violations())
		}
	}
}

// TestMetamorphicPropertiesEveryProfile pins the paper's shape-level claims
// as profile-independent: forwarding multiplies exits (a nested hypercall
// costs several times a single-level one), and DVH collapses the forwarded
// device/timer/IPI paths back toward host-direct costs. Absolute cycles are
// the profile's business; these orderings are the engine's.
func TestMetamorphicPropertiesEveryProfile(t *testing.T) {
	micro := func(t *testing.T, spec experiment.Spec, m workload.Micro) int64 {
		t.Helper()
		st, err := experiment.Build(spec)
		if err != nil {
			t.Fatalf("Build(%+v): %v", spec, err)
		}
		c, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, 4)
		if err != nil {
			t.Fatalf("%+v: %v: %v", spec, m, err)
		}
		return int64(c)
	}
	for _, p := range profile.All() {
		t.Run(p.Name, func(t *testing.T) {
			l1 := micro(t, experiment.Spec{Depth: 1, IO: experiment.IOParavirt, Profile: p.Name}, workload.MicroHypercall)
			l2 := micro(t, experiment.Spec{Depth: 2, IO: experiment.IOParavirt, Profile: p.Name}, workload.MicroHypercall)
			if l2 < 3*l1 {
				t.Errorf("exit multiplication too weak: L2 hypercall %d < 3x L1 %d", l2, l1)
			}
			for _, m := range []workload.Micro{workload.MicroDevNotify, workload.MicroProgramTimer, workload.MicroSendIPI} {
				fwd := micro(t, experiment.Spec{Depth: 2, IO: experiment.IOParavirt, Profile: p.Name}, m)
				dvh := micro(t, experiment.Spec{Depth: 2, IO: experiment.IODVH, Profile: p.Name}, m)
				if dvh >= fwd {
					t.Errorf("DVH did not reduce %v at L2: %d >= forwarded %d", m, dvh, fwd)
				}
			}
		})
	}
}

// TestWorldDefaultMatchesDefaultProfile pins NewWorld's implicit calibration
// (DefaultCosts on HardwareCaps machines) to the registry's default profile,
// so a world built outside the experiment layer is still a named testbed.
func TestWorldDefaultMatchesDefaultProfile(t *testing.T) {
	p, ok := profile.Lookup(profile.DefaultName)
	if !ok {
		t.Fatalf("default profile %s not registered", profile.DefaultName)
	}
	if hyper.DefaultCosts() != p.Costs {
		t.Error("hyper.DefaultCosts() diverged from the default profile's cost model")
	}
}
