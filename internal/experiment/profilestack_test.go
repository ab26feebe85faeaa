package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hyper"
	"repro/internal/profile"
)

// withDefaultProfile installs a harness-wide default profile for the duration
// of the callback, restoring the unset state afterwards.
func withDefaultProfile(t testing.TB, name string, fn func()) {
	t.Helper()
	prev := DefaultProfile()
	SetDefaultProfile(name)
	defer SetDefaultProfile(prev)
	fn()
}

// TestXeonProfileGoldenByteIdentity pins the refactor's central compatibility
// claim: building every stack through the profile subsystem with
// xeon-silver-4114 explicitly selected produces output byte-identical to the
// committed goldens — which predate profiles — at pool widths 1, 4 and 8,
// each run from an empty cell memo.
func TestXeonProfileGoldenByteIdentity(t *testing.T) {
	withDefaultProfile(t, profile.DefaultName, func() {
		for _, name := range []string{"table3", "figure7"} {
			fn, fixture := textOf(t, name), name+".golden"
			want, err := os.ReadFile(filepath.Join("testdata", "golden", fixture))
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{1, 4, 8} {
				got, n := runFresh(t, width, fn)
				if name == "figure7" && n == 0 {
					t.Errorf("%s at width %d computed no cells; a memo hit would make the comparison vacuous", fixture, width)
				}
				if got != string(want) {
					t.Errorf("%s: output under explicit %s at width %d diverges from golden",
						fixture, profile.DefaultName, width)
				}
			}
		}
	})
}

// TestProfilesProduceDistinctAnchoredTables is the other half of the claim:
// non-default profiles change the numbers (pairwise-distinct Table 3 output)
// while each table's VM column still equals the profile's own validated
// anchors — the calibration moved, the identities held.
func TestProfilesProduceDistinctAnchoredTables(t *testing.T) {
	names := []string{profile.DefaultName, "ice-lake-sp", "epyc-milan"}
	tables := map[string]string{}
	for _, name := range names {
		withDefaultProfile(t, name, func() {
			rows, err := Table3()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tables[name] = FormatTable3(rows)
			p, ok := profile.Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			for _, r := range rows {
				anchor := r.Name + "(VM)"
				want, ok := profile.AnchorValue(p.Costs, anchor)
				if !ok {
					t.Fatalf("%s: no anchor identity for Table 3 row %q", name, r.Name)
				}
				if r.VM != want {
					t.Errorf("%s: Table 3 %s VM column = %v cycles, profile anchor %s = %v",
						name, r.Name, r.VM, anchor, want)
				}
			}
		})
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			if tables[a] == tables[b] {
				t.Errorf("profiles %s and %s produced identical Table 3 output; calibrations must be distinct", a, b)
			}
		}
	}
}

// TestSpecProfilePrecedence pins the resolution order: an explicit
// Spec.Profile beats the harness default installed by a CLI flag, and an
// unknown name fails Build with the registered list in the error.
func TestSpecProfilePrecedence(t *testing.T) {
	withDefaultProfile(t, "epyc-milan", func() {
		st, err := Build(Spec{Depth: 1, IO: IOParavirt, Profile: "ice-lake-sp"})
		if err != nil {
			t.Fatal(err)
		}
		if st.Profile.Name != "ice-lake-sp" {
			t.Errorf("Spec.Profile did not win over harness default: built under %s", st.Profile.Name)
		}
		st, err = Build(Spec{Depth: 1, IO: IOParavirt})
		if err != nil {
			t.Fatal(err)
		}
		if st.Profile.Name != "epyc-milan" {
			t.Errorf("harness default not applied: built under %s", st.Profile.Name)
		}
	})
	_, err := Build(Spec{Depth: 1, IO: IOParavirt, Profile: "no-such-testbed"})
	if err == nil {
		t.Fatal("Build accepted an unknown profile name")
	}
	if !strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), profile.DefaultName) {
		t.Errorf("unknown-profile error does not list registered profiles: %v", err)
	}
}

// TestEnlightenedSpec covers the interceptor-aware artifact configuration:
// Spec.Enlightened registers the guest's enlightenment on the built world, so
// the claimed exit class is handled directly at the host.
func TestEnlightenedSpec(t *testing.T) {
	st, err := Build(Spec{Depth: 2, IO: IOParavirt, Guest: GuestHyperV, Enlightened: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.World.Execute(st.Target.VCPUs[0], hyper.Hypercall()); err != nil {
		t.Fatal(err)
	}
	if n := st.Machine.Stats.Counter("hyperv.enlightened_hypercalls"); n != 1 {
		t.Errorf("hyperv.enlightened_hypercalls = %d, want 1 (enlightenment not registered?)", n)
	}

	xs, err := Build(Spec{Depth: 2, IO: IOParavirt, Guest: GuestXen, Enlightened: true})
	if err != nil {
		t.Fatal(err)
	}
	chain := xs.World.Interceptors()
	if len(chain) != 1 {
		t.Fatalf("xen enlightened paravirt stack has %d interceptors, want 1", len(chain))
	}
	if name, _ := chain[0].InterceptorInfo(); name != "xen-evtchn" {
		t.Errorf("registered interceptor %q, want xen-evtchn", name)
	}

	for _, spec := range []Spec{
		{Depth: 1, IO: IOParavirt, Enlightened: true},
		{Depth: 2, IO: IOParavirt, Guest: GuestKVM, Enlightened: true},
	} {
		if _, err := Build(spec); err == nil {
			t.Errorf("Build(%+v) accepted an impossible enlightened configuration", spec)
		}
	}
}
