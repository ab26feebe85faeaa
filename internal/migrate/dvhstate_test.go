package migrate

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/vmx"
)

// TestMigrationCarriesDVHState migrates a nested VM with an armed virtual
// timer through a full Plan and checks the timer fires on the destination —
// the paper's Section 3.6 requirement that virtual-hardware state move with
// the VM.
func TestMigrationCarriesDVHState(t *testing.T) {
	mk := func(name string) (*hyper.World, *core.DVH, *hyper.VM) {
		m := machine.MustNew(machine.Config{Name: name, CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps})
		host := hyper.NewHost(m, hyper.KVM{})
		w := hyper.NewWorld(host)
		d, err := core.Enable(w, core.FeaturesAll)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := host.CreateVM(hyper.VMConfig{Name: "L1", VCPUs: 6, MemBytes: 8 << 30})
		if err != nil {
			t.Fatal(err)
		}
		gh := l1.InstallHypervisor(hyper.KVM{}, "kvm-L1")
		l2, err := gh.CreateVM(hyper.VMConfig{Name: "L2", VCPUs: 4, MemBytes: 2 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ConfigureVM(l2); err != nil {
			t.Fatal(err)
		}
		return w, d, l2
	}
	wSrc, dSrc, src := mk("src")
	wDst, dDst, dst := mk("dst")

	// Arm the virtual timer on the source before migrating.
	if _, err := wSrc.Execute(src.VCPUs[0], hyper.ProgramTimer(2_000_000)); err != nil {
		t.Fatal(err)
	}

	plan := &Plan{
		VM: src, Dest: dst,
		DVHSource: dSrc, DVHDest: dDst,
		Churn: Churn{WorkingSetPages: 512, CPUPagesPerSec: 200},
	}
	rep, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeviceStateBytes == 0 {
		t.Fatal("DVH state not shipped in the blackout")
	}
	dv := dst.VCPUs[0]
	if dv.LAPIC.TSCDeadline() == 0 {
		t.Fatal("virtual timer not re-armed at the destination")
	}
	wDst.RunUntil(3_000_000)
	if !dv.LAPIC.Pending(apic.VectorTimer) {
		t.Fatal("migrated timer never fired at the destination")
	}
	// Virtual IPIs work immediately at the destination (VCIMT rebuilt).
	if _, err := wDst.Execute(dst.VCPUs[0], hyper.SendIPI(2, apic.VectorCallFunc)); err != nil {
		t.Fatal(err)
	}
	if !dst.VCPUs[2].LAPIC.Pending(apic.VectorCallFunc) {
		t.Fatal("destination VCIMT did not route IPIs")
	}
}
