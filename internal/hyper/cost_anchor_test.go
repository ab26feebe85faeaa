// The executable replacement for the arithmetic comments that used to
// annotate DefaultCosts ("750+225+600 = 1,575 (Hypercall, VM)"): the Table 3
// "VM"-column identities are asserted here and re-checked for every
// registered calibration profile, so drift fails the build instead of
// rotting in comments. External test package: profile imports hyper, so the
// assertion has to live on this side of the boundary.
package hyper_test

import (
	"testing"

	"repro/internal/hyper"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/vmx"
)

// TestTable3VMColumnAnchors pins DefaultCosts to the paper's Table 3 "VM"
// column, identity by identity.
func TestTable3VMColumnAnchors(t *testing.T) {
	c := hyper.DefaultCosts()
	for _, tc := range []struct {
		name string
		got  sim.Cycles
		want sim.Cycles
	}{
		{"Hypercall(VM)", c.HwExit + c.HostDispatch + c.HwEntry, 1575},
		{"DevNotify(VM)", c.HwExit + c.HostDispatch + c.HwEntry + c.VirtioBackendWork, 4984},
		{"ProgramTimer(VM)", c.HwExit + c.HostDispatch + c.HwEntry + c.TimerProgramWork, 2005},
		{"SendIPI(VM)", c.HwExit + c.HostDispatch + c.HwEntry + c.IPIEmulWork + c.WakeWork, 3273},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: DefaultCosts composes to %v cycles, Table 3 says %v", tc.name, tc.got, tc.want)
		}
		// The same identity through the profile subsystem's evaluator — the
		// two formulations must never diverge.
		if av, ok := profile.AnchorValue(c, tc.name); !ok || av != tc.got {
			t.Errorf("%s: profile.AnchorValue says %v (ok=%v), direct composition says %v", tc.name, av, ok, tc.got)
		}
	}
}

// TestRegisteredProfileAnchors re-validates every registered profile's anchor
// set — the same check Register performs, run table-driven so a future edit
// to Validate cannot silently stop covering it — and requires full coverage:
// each profile must anchor every recognized identity.
func TestRegisteredProfileAnchors(t *testing.T) {
	for _, p := range profile.All() {
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			anchored := map[string]sim.Cycles{}
			for _, a := range p.Anchors {
				anchored[a.Name] = a.Want
				got, ok := profile.AnchorValue(p.Costs, a.Name)
				if !ok {
					t.Fatalf("anchor %q not recognized by AnchorValue", a.Name)
				}
				if got != a.Want {
					t.Errorf("anchor %s: cost model composes to %v, profile asserts %v", a.Name, got, a.Want)
				}
			}
			for _, name := range profile.AnchorNames {
				if _, ok := anchored[name]; !ok {
					t.Errorf("profile does not anchor %s; unanchored identities can drift silently", name)
				}
			}
		})
	}
}

// TestDefaultProfileIsCurrentDefaults pins the xeon-silver-4114 profile
// bit-identically to the previously hard-coded anchor: hyper.DefaultCosts()
// and vmx.HardwareCaps. Every committed golden and BENCH artifact depends on
// this identity.
func TestDefaultProfileIsCurrentDefaults(t *testing.T) {
	p, ok := profile.Lookup(profile.DefaultName)
	if !ok || p.Name != "xeon-silver-4114" {
		t.Fatalf("default profile is %q, want xeon-silver-4114", p.Name)
	}
	if p.Costs != hyper.DefaultCosts() {
		t.Errorf("default profile cost model diverges from hyper.DefaultCosts():\nprofile:  %+v\ndefaults: %+v", p.Costs, hyper.DefaultCosts())
	}
	if p.Caps != vmx.HardwareCaps {
		t.Errorf("default profile caps %v, want vmx.HardwareCaps %v", p.Caps, vmx.HardwareCaps)
	}
}
