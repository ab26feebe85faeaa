// External test package: the sweep tests drive full experiment stacks, and
// experiment imports profile — an internal test package would cycle.
package profile_test

import (
	"strings"
	"testing"

	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/vmx"
)

// validBase returns a minimal valid profile for mutation in Validate tests.
func validBase() profile.Profile {
	return profile.Profile{
		Name:        "test-base",
		Description: "a synthetic testbed for Validate tests",
		Costs:       hyper.DefaultCosts(),
		Caps:        vmx.HardwareCaps,
		Anchors: []profile.Anchor{
			{Name: "Hypercall(VM)", Want: 1575},
		},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*profile.Profile)
		errWant string
	}{
		{"empty-name", func(p *profile.Profile) { p.Name = "" }, "empty name"},
		{"empty-description", func(p *profile.Profile) { p.Description = "" }, "empty description"},
		{"no-vmx", func(p *profile.Profile) { p.Caps = p.Caps.Without(vmx.CapVMX) }, "lacks VMX+EPT"},
		{"no-ept", func(p *profile.Profile) { p.Caps = p.Caps.Without(vmx.CapEPT) }, "lacks VMX+EPT"},
		{"no-anchors", func(p *profile.Profile) { p.Anchors = nil }, "no anchor assertions"},
		{"duplicate-anchor", func(p *profile.Profile) {
			p.Anchors = append(p.Anchors, profile.Anchor{Name: "Hypercall(VM)", Want: 1575})
		}, "duplicate anchor"},
		{"unknown-identity", func(p *profile.Profile) {
			p.Anchors = []profile.Anchor{{Name: "WorldSwitch(VM)", Want: 1}}
		}, "unknown anchor identity"},
		{"calibration-drift", func(p *profile.Profile) {
			p.Costs.HostDispatch++ // 1,576 != the asserted 1,575
		}, "calibration drift"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validBase()
			tc.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a %s profile", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Errorf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
	if err := validBase().Validate(); err != nil {
		t.Errorf("Validate rejected the valid base: %v", err)
	}
}

// TestRegisterRejectsDuplicates re-registers a built-in rather than a junk
// name, so the registry (which Names/All/the sweep iterate) is never
// polluted by test profiles.
func TestRegisterRejectsDuplicates(t *testing.T) {
	err := profile.Register(profile.XeonSilver4114())
	if err == nil {
		t.Fatal("Register accepted a duplicate of a built-in profile")
	}
	if !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate error = %v", err)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := profile.Names()
	want := []string{"epyc-milan", "hyperv-vtpr-heavy", "ice-lake-sp", "xeon-silver-4114"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", names, want)
		}
	}
	all := profile.All()
	for i, p := range all {
		if p.Name != names[i] {
			t.Errorf("All()[%d] = %s, want %s (same order as Names)", i, p.Name, names[i])
		}
	}
	if p, ok := profile.Lookup(profile.DefaultName); !ok || p.Name != profile.DefaultName {
		t.Errorf("Lookup(%s) = %s, %v", profile.DefaultName, p.Name, ok)
	}
}

// TestResolvePrecedence pins the selection order every CLI and Build rely on:
// explicit name, then NVSIM_PROFILE, then the paper default.
func TestResolvePrecedence(t *testing.T) {
	t.Setenv(profile.Env, "")
	p, err := profile.Resolve("")
	if err != nil || p.Name != profile.DefaultName {
		t.Errorf("Resolve(\"\") with empty env = %v, %v; want default", p.Name, err)
	}

	t.Setenv(profile.Env, "epyc-milan")
	p, err = profile.Resolve("")
	if err != nil || p.Name != "epyc-milan" {
		t.Errorf("Resolve(\"\") with env = %v, %v; want epyc-milan", p.Name, err)
	}
	p, err = profile.Resolve("ice-lake-sp")
	if err != nil || p.Name != "ice-lake-sp" {
		t.Errorf("explicit name did not override env: %v, %v", p.Name, err)
	}

	t.Setenv(profile.Env, "no-such-testbed")
	if _, err := profile.Resolve(""); err == nil {
		t.Error("Resolve accepted an unknown env profile")
	} else if !strings.Contains(err.Error(), "registered: "+strings.Join(profile.Names(), ", ")) {
		t.Errorf("unknown-profile error does not list the registry: %v", err)
	}
}

func TestAnchorString(t *testing.T) {
	got := profile.XeonSilver4114().AnchorString()
	want := "Hypercall(VM)=1575 DevNotify(VM)=4984 ProgramTimer(VM)=2005 SendIPI(VM)=3273"
	if got != want {
		t.Errorf("AnchorString() = %q, want %q", got, want)
	}
}

// TestApplyInstallsBoth verifies Apply lands both halves of the calibration
// on the world (cost model and capability word) through their setters, so
// the plan generation moves.
func TestApplyInstallsBoth(t *testing.T) {
	m, err := machine.New(machine.Config{
		Name: "apply-test", CPUs: 4, MemoryBytes: 32 << 30, Caps: vmx.HardwareCaps, NICVFs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	host := hyper.NewHost(m, hyper.KVM{})
	w := hyper.NewWorld(host)
	gen := m.PlanGen

	p, _ := profile.Lookup("epyc-milan")
	profile.Apply(w, p)
	if w.Costs != p.Costs {
		t.Error("Apply did not install the profile's cost model")
	}
	if w.Host.Caps != p.Caps {
		t.Errorf("Apply did not install the profile's caps: %v, want %v", w.Host.Caps, p.Caps)
	}
	if w.Host.Caps.Has(vmx.CapVMCSShadowing) {
		t.Error("epyc-milan world still advertises VMCS shadowing")
	}
	if m.PlanGen == gen {
		t.Errorf("Apply left the plan generation at %d", gen)
	}
}
