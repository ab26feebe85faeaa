package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/vmx"
)

func TestSaveRestoreVMState(t *testing.T) {
	dSrc, wSrc, src := buildStack(t, 2, FeaturesAll)
	dDst, wDst, dst := buildStack(t, 2, FeaturesAll)
	_ = wDst

	// Arm a virtual timer and set offsets on the source.
	v := src[1].VCPUs[0]
	v.VMCS.SetTSCOffset(-4000)
	v.LAPIC.SetTimerVector(apic.Vector(200))
	if _, err := wSrc.Execute(v, hyper.ProgramTimer(500_000)); err != nil {
		t.Fatal(err)
	}

	blob, err := dSrc.SaveVMState(src[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("empty state blob")
	}
	if err := dDst.RestoreVMState(dst[1], blob); err != nil {
		t.Fatal(err)
	}
	dv := dst[1].VCPUs[0]
	if dv.LAPIC.TSCDeadline() == 0 {
		t.Fatal("timer deadline not restored")
	}
	if dv.LAPIC.TimerVector() != 200 {
		t.Fatalf("timer vector = %d", dv.LAPIC.TimerVector())
	}
	if dv.VMCS.TSCOffset() != -4000 {
		t.Fatalf("TSC offset = %d", dv.VMCS.TSCOffset())
	}
	if !dv.VMCS.ControlSet(vmx.FieldProcBasedControls3, vmx.Proc3VirtualTimerEnable|vmx.Proc3VirtualIPIEnable) {
		t.Fatal("DVH enable bits not restored")
	}
	// The restored timer must actually fire on the destination host.
	wDst.RunUntil(1_000_000)
	if !dv.LAPIC.Pending(200) {
		t.Fatal("restored timer never fired on the destination")
	}
	// The destination VCIMT must route IPIs.
	if _, err := wDst.Execute(dst[1].VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule)); err != nil {
		t.Fatal(err)
	}
	if !dst[1].VCPUs[1].LAPIC.Pending(apic.VectorReschedule) {
		t.Fatal("restored VCIMT did not route the IPI")
	}
}

// TestRestoreWithoutVCIMTFailsIPI: a state blob that enables virtual IPIs
// but records no VCIMT, restored into a VM no table was built for, leaves
// the host nothing to resolve a nested IPI through, and the send fails.
func TestRestoreWithoutVCIMTFailsIPI(t *testing.T) {
	d, w, vms := buildStack(t, 2, FeaturesAll)
	blob, err := d.SaveVMState(vms[1])
	if err != nil {
		t.Fatal(err)
	}
	blob = bytes.Replace(blob, []byte(`"has_vcimt":true`), []byte(`"has_vcimt":false`), 1)
	dst, err := vms[0].GuestHyp.CreateVM(hyper.VMConfig{Name: "dst", VCPUs: 4, MemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreVMState(dst, blob); err != nil {
		t.Fatal(err)
	}
	_, err = w.Execute(dst.VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule))
	if err == nil || !strings.Contains(err.Error(), "no VCIMT published") {
		t.Fatalf("IPI with virtual IPIs enabled and no VCIMT: err = %v", err)
	}
}

func TestSaveVMStateValidation(t *testing.T) {
	d, _, vms := buildStack(t, 2, FeaturesAll)
	if _, err := d.SaveVMState(vms[0]); err == nil {
		t.Fatal("save of a level-1 VM accepted")
	}
	if err := d.RestoreVMState(vms[1], []byte("junk")); err == nil {
		t.Fatal("corrupt blob accepted")
	}
	// vCPU-count mismatch.
	gh := vms[0].GuestHyp
	small, err := gh.CreateVM(hyper.VMConfig{Name: "small", VCPUs: 2, MemBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.SaveVMState(vms[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreVMState(small, blob); err == nil {
		t.Fatal("vCPU-count mismatch accepted")
	}
}

func TestDirectTimerDeliveryExtension(t *testing.T) {
	// With the Section 3.2 optimization, a fired nested virtual timer is
	// posted straight to the vCPU; without it, the guest hypervisor's
	// injection path runs.
	withOpt, wWith, vmsWith := buildStack(t, 2, FeaturesAll)
	_ = withOpt
	vWith := vmsWith[1].VCPUs[0]
	statsWith := wWith.Host.Machine.Stats
	statsWith.Reset()
	cost := wWith.DeliverTimerIRQ(vWith)
	if cost > 1000 {
		t.Errorf("direct delivery cost %v; should be a posted interrupt", cost)
	}
	if statsWith.Counter("dvh.vtimer.direct_deliveries") != 1 {
		t.Error("direct delivery not counted")
	}
	if statsWith.GuestHypervisorExits() != 0 {
		t.Error("direct delivery involved a guest hypervisor")
	}

	woOpt, wWo, vmsWo := buildStack(t, 2, FeaturesAll&^FeatureDirectTimerDelivery)
	_ = woOpt
	vWo := vmsWo[1].VCPUs[0]
	wWo.Host.Machine.Stats.Reset()
	costWo := wWo.DeliverTimerIRQ(vWo)
	if costWo < 8*cost {
		t.Errorf("injection-path delivery %v should dwarf direct %v", costWo, cost)
	}
	if wWo.Host.Machine.Stats.TotalHandledAt(1) == 0 {
		t.Error("injection path never reached the guest hypervisor")
	}
}

func TestDirectTimerDeliveryPolicy(t *testing.T) {
	d, _, vms := buildStack(t, 2, FeaturesAll)
	if !d.DirectTimerDelivery(vms[1].VCPUs[0]) {
		t.Fatal("policy should allow direct delivery with the feature on")
	}
	// Clearing the virtual-timer enable bit disables the optimization too.
	vms[1].VCPUs[0].VMCS.ClearControl(vmx.FieldProcBasedControls3, vmx.Proc3VirtualTimerEnable)
	if d.DirectTimerDelivery(vms[1].VCPUs[0]) {
		t.Fatal("policy should track the enable bit")
	}
}
