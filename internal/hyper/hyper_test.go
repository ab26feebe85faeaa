package hyper

import (
	"reflect"
	"testing"

	"repro/internal/apic"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// testStack builds a nesting stack of the given depth with one VM per level
// (4 vCPUs each) and returns the world plus the innermost VM.
func testStack(t testing.TB, depth int) (*World, []*VM) {
	t.Helper()
	m := machine.MustNew(machine.Config{
		Name: "test", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps, NICVFs: 4,
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

func vmName(lvl int) string { return "L" + string(rune('0'+lvl)) + "-vm" }

func exec(t testing.TB, w *World, v *VCPU, op Op) sim.Cycles {
	t.Helper()
	c, err := w.Execute(v, op)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// within asserts got lies in [lo, hi].
func within(t *testing.T, name string, got, lo, hi sim.Cycles) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %v cycles, want within [%v, %v]", name, got, lo, hi)
	} else {
		t.Logf("%s = %v cycles (band [%v, %v])", name, got, lo, hi)
	}
}

func TestHypercallVMCalibration(t *testing.T) {
	// Paper Table 3: Hypercall from a (non-nested) VM costs 1,575 cycles.
	w, vms := testStack(t, 1)
	got := exec(t, w, vms[0].VCPUs[0], Hypercall())
	if got != 1575 {
		t.Fatalf("single-level hypercall = %v, calibrated to exactly 1,575", got)
	}
}

func TestHypercallNestedBand(t *testing.T) {
	// Paper Table 3: nested (L2) hypercall = 37,733 — about 24x the VM cost.
	w, vms := testStack(t, 2)
	got := exec(t, w, vms[1].VCPUs[0], Hypercall())
	within(t, "L2 hypercall", got, 30_000, 46_000)
	ratio := float64(got) / 1575
	if ratio < 18 || ratio > 30 {
		t.Errorf("L2/L1 hypercall ratio = %.1f, want ~24x", ratio)
	}
}

func TestHypercallL3Band(t *testing.T) {
	// Paper Table 3: L3 hypercall = 857,578 — about 23x the L2 cost.
	w, vms := testStack(t, 3)
	l2 := exec(t, w, vms[1].VCPUs[0], Hypercall())
	l3 := exec(t, w, vms[2].VCPUs[0], Hypercall())
	within(t, "L3 hypercall", l3, 600_000, 1_200_000)
	ratio := float64(l3) / float64(l2)
	if ratio < 15 || ratio > 32 {
		t.Errorf("L3/L2 hypercall ratio = %.1f, want ~23x", ratio)
	}
}

func TestProgramTimerCalibration(t *testing.T) {
	// Paper Table 3: ProgramTimer VM = 2,005; nested (no DVH) = 43,359.
	w1, vms1 := testStack(t, 1)
	got := exec(t, w1, vms1[0].VCPUs[0], ProgramTimer(10_000))
	if got != 2005 {
		t.Fatalf("single-level ProgramTimer = %v, calibrated to exactly 2,005", got)
	}
	w2, vms2 := testStack(t, 2)
	nested := exec(t, w2, vms2[1].VCPUs[0], ProgramTimer(10_000))
	within(t, "L2 ProgramTimer", nested, 34_000, 52_000)
}

func TestSendIPICalibration(t *testing.T) {
	// Paper Table 3: SendIPI VM = 3,273 (destination idle); nested = 39,456.
	w1, vms1 := testStack(t, 1)
	dest := vms1[0].VCPUs[1]
	dest.Idle = true
	got := exec(t, w1, vms1[0].VCPUs[0], SendIPI(1, apic.VectorReschedule))
	if got != 3273 {
		t.Fatalf("single-level SendIPI = %v, calibrated to exactly 3,273", got)
	}
	if dest.Idle {
		t.Fatal("destination not woken")
	}
	if !dest.LAPIC.Pending(apic.VectorReschedule) {
		t.Fatal("IPI vector not delivered to destination LAPIC")
	}

	w2, vms2 := testStack(t, 2)
	vms2[1].VCPUs[1].Idle = true
	nested := exec(t, w2, vms2[1].VCPUs[0], SendIPI(1, apic.VectorReschedule))
	within(t, "L2 SendIPI", nested, 32_000, 55_000)
}

func TestDevNotifyCalibration(t *testing.T) {
	// Paper Table 3: DevNotify VM = 4,984; nested paravirtual = 48,390.
	w1, vms1 := testStack(t, 1)
	dev1, err := AttachParavirtNet(vms1[0], "net0")
	if err != nil {
		t.Fatal(err)
	}
	got := exec(t, w1, vms1[0].VCPUs[0], DevNotify(dev1.Doorbell))
	if got != 4984 {
		t.Fatalf("single-level DevNotify = %v, calibrated to exactly 4,984", got)
	}

	w2, vms2 := testStack(t, 2)
	if _, err := AttachParavirtNet(vms2[0], "net0"); err != nil {
		t.Fatal(err)
	}
	dev2, err := AttachParavirtNet(vms2[1], "net1")
	if err != nil {
		t.Fatal(err)
	}
	nested := exec(t, w2, vms2[1].VCPUs[0], DevNotify(dev2.Doorbell))
	within(t, "L2 DevNotify (paravirtual)", nested, 40_000, 58_000)
}

func TestDevNotifyL3ParavirtualCascades(t *testing.T) {
	// Three levels of virtio: the L3 kick forwards to L2, whose backend
	// kicks its L1 device (forwarded to L1), whose backend kicks the L0
	// device. Paper Table 3: 1,008,935 cycles.
	w, vms := testStack(t, 3)
	if _, err := AttachParavirtNet(vms[0], "net0"); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachParavirtNet(vms[1], "net1"); err != nil {
		t.Fatal(err)
	}
	dev3, err := AttachParavirtNet(vms[2], "net2")
	if err != nil {
		t.Fatal(err)
	}
	got := exec(t, w, vms[2].VCPUs[0], DevNotify(dev3.Doorbell))
	within(t, "L3 DevNotify (paravirtual)", got, 700_000, 1_400_000)
	if w.Host.Machine.Stats.Counter("virtio.kicks") != 3 {
		t.Errorf("cascade produced %d backend kicks, want 3", w.Host.Machine.Stats.Counter("virtio.kicks"))
	}
}

func TestPassthroughDoorbellNoExit(t *testing.T) {
	w, vms := testStack(t, 2)
	// Build the passthrough chain: L1 VM needs a vIOMMU for its hypervisor
	// to assign the VF onward.
	vms[0].ProvideVIOMMU(true)
	vfs, err := w.Host.Machine.CreateVFs(1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := AttachPassthroughNIC(vms[1], vfs[0])
	if err != nil {
		t.Fatal(err)
	}
	before := w.Host.Machine.Stats.TotalHardwareExits()
	got := exec(t, w, vms[1].VCPUs[0], DevNotify(dev.Doorbell))
	if got != w.Costs.MMIODirect {
		t.Fatalf("passthrough doorbell cost %v, want direct MMIO %v", got, w.Costs.MMIODirect)
	}
	if w.Host.Machine.Stats.TotalHardwareExits() != before {
		t.Fatal("passthrough doorbell caused a VM exit")
	}
	if w.Host.Machine.NIC.TxFrames != 1 {
		t.Fatal("frame did not reach the physical NIC")
	}
}

func TestPassthroughRequiresVIOMMU(t *testing.T) {
	w, vms := testStack(t, 2)
	vfs, err := w.Host.Machine.CreateVFs(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachPassthroughNIC(vms[1], vfs[0]); err == nil {
		t.Fatal("nested passthrough without a vIOMMU should fail")
	}
}

func TestHLTOwnership(t *testing.T) {
	// Without DVH virtual idle, an L2 HLT is owned by L1 (expensive); an L1
	// HLT is owned by the host.
	w, vms := testStack(t, 2)
	l1cost := exec(t, w, vms[0].VCPUs[2], Halt())
	if !vms[0].VCPUs[2].Idle {
		t.Fatal("L1 vCPU not idle after HLT")
	}
	l2cost := exec(t, w, vms[1].VCPUs[2], Halt())
	if !vms[1].VCPUs[2].Idle {
		t.Fatal("L2 vCPU not idle after HLT")
	}
	if l2cost < 10*l1cost {
		t.Errorf("L2 HLT (%v) should be far costlier than L1 HLT (%v)", l2cost, l1cost)
	}

	// Virtual idle: the guest hypervisor stops trapping HLT; ownership falls
	// to the host and the cost collapses.
	vms[1].VCPUs[3].VMCS.ClearControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
	vidle := exec(t, w, vms[1].VCPUs[3], Halt())
	if vidle >= l2cost/10 {
		t.Errorf("virtual-idle HLT (%v) should be ~L1 cost, got vs forwarded %v", vidle, l2cost)
	}
}

func TestWakeCostDependsOnIdleOwner(t *testing.T) {
	w, vms := testStack(t, 2)
	// Forwarded wake: vCPU blocked by L1.
	blocked := vms[1].VCPUs[1]
	exec(t, w, blocked, Halt())
	fwdWake := w.WakeIfIdle(blocked)
	// Host wake: vCPU blocked at L0 thanks to virtual idle.
	vblocked := vms[1].VCPUs[2]
	vblocked.VMCS.ClearControl(vmx.FieldProcBasedControls, vmx.ProcHLTExiting)
	exec(t, w, vblocked, Halt())
	hostWake := w.WakeIfIdle(vblocked)
	if fwdWake <= hostWake+2*w.Costs.GuestWakeWork/3 {
		t.Errorf("guest-hypervisor wake %v should exceed host wake %v by the reschedule work", fwdWake, hostWake)
	}
	// Waking a running vCPU is free.
	if c := w.WakeIfIdle(vms[1].VCPUs[0]); c != 0 {
		t.Errorf("wake of running vCPU cost %v, want 0", c)
	}
}

func TestEOIVirtualizedByAPICv(t *testing.T) {
	w, vms := testStack(t, 1)
	v := vms[0].VCPUs[0]
	v.LAPIC.Deliver(apic.VectorVirtioIRQ)
	v.LAPIC.Ack()
	before := w.Host.Machine.Stats.TotalHardwareExits()
	cost := exec(t, w, v, EOI())
	if w.Host.Machine.Stats.TotalHardwareExits() != before {
		t.Fatal("EOI with APICv caused an exit")
	}
	if cost > 100 {
		t.Fatalf("virtualized EOI cost %v", cost)
	}
	if v.LAPIC.InService(apic.VectorVirtioIRQ) {
		t.Fatal("EOI did not retire the in-service vector")
	}
}

func TestDeliverDeviceIRQPostedVsExitPath(t *testing.T) {
	w, vms := testStack(t, 2)
	if _, err := AttachParavirtNet(vms[0], "net0"); err != nil {
		t.Fatal(err)
	}
	dev, err := AttachParavirtNet(vms[1], "net1")
	if err != nil {
		t.Fatal(err)
	}
	target := vms[1].VCPUs[0]
	posted := w.DeliverDeviceIRQ(dev, target)
	if posted != w.Costs.InjectPostedRunning {
		t.Fatalf("posted delivery cost %v", posted)
	}
	if !target.LAPIC.Pending(dev.IRQ) {
		t.Fatal("IRQ not pending in target LAPIC")
	}

	dev.PostedDelivery = false
	exitPath := w.DeliverDeviceIRQ(dev, target)
	if exitPath < 20*posted {
		t.Errorf("exit-path delivery %v should dwarf posted %v", exitPath, posted)
	}
}

func TestExitMultiplicationVisibleInStats(t *testing.T) {
	w, vms := testStack(t, 2)
	stats := w.Host.Machine.Stats
	stats.Reset()
	exec(t, w, vms[1].VCPUs[0], Hypercall())
	hw := stats.TotalHardwareExits()
	if hw < 10 {
		t.Errorf("one L2 hypercall produced only %d hardware exits; exit multiplication missing", hw)
	}
	if stats.TotalHandledAt(1) != 1 {
		t.Errorf("L1 should have handled exactly the one forwarded exit, got %d", stats.TotalHandledAt(1))
	}
	if stats.HandledExits[vmx.ExitVMRESUME.Index()][0] == 0 {
		t.Error("no VMRESUME emulations recorded at the host")
	}
}

func TestVMCSShadowingMatters(t *testing.T) {
	// Disabling VMCS shadowing must make nested exits far more expensive:
	// every vmcs12 access becomes a trapped VMREAD.
	w, vms := testStack(t, 2)
	withShadow := exec(t, w, vms[1].VCPUs[0], Hypercall())

	m2 := machine.MustNew(machine.Config{
		Name: "noshadow", CPUs: 10, MemoryBytes: 64 << 30,
		Caps: vmx.HardwareCaps.Without(vmx.CapVMCSShadowing),
	})
	host2 := NewHost(m2, KVM{})
	w2 := NewWorld(host2)
	l1, err := host2.CreateVM(VMConfig{Name: "L1", VCPUs: 4, MemBytes: 16 << 30})
	if err != nil {
		t.Fatal(err)
	}
	gh := l1.InstallHypervisor(KVM{}, "kvm-L1")
	l2, err := gh.CreateVM(VMConfig{Name: "L2", VCPUs: 4, MemBytes: 8 << 30})
	if err != nil {
		t.Fatal(err)
	}
	withoutShadow := exec(t, w2, l2.VCPUs[0], Hypercall())
	if withoutShadow < 3*withShadow {
		t.Errorf("no-shadowing hypercall %v should be several times shadowed %v", withoutShadow, withShadow)
	}
}

func TestGuestMemoryReadWriteThroughChain(t *testing.T) {
	_, vms := testStack(t, 2)
	l2 := vms[1]
	gm := l2.Memory()
	data := []byte("bytes through two EPT levels")
	addr := l2.MustAllocPages(1)
	if err := gm.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := gm.Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Fatalf("round trip got %q", buf)
	}
	// The same bytes must be visible at the translated host address.
	host, _, err := l2.translateRun(mem.PageOf(addr), 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, len(data))
	if err := vms[0].Owner.Machine.Memory.Read(host.Base()+addr%mem.PageSize, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(data) {
		t.Fatal("bytes not present in machine memory at translated address")
	}
}

func TestDirtyTrackingPropagatesDown(t *testing.T) {
	_, vms := testStack(t, 2)
	l1, l2 := vms[0], vms[1]
	l1.StartDirtyLog()
	l2.StartDirtyLog()
	addr := l2.MustAllocPages(1)
	if err := l2.Memory().Write(addr, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	d2 := l2.DirtyLog().PFNs()
	if len(d2) != 1 {
		t.Fatalf("L2 dirty pages = %v", d2)
	}
	d1 := l1.DirtyLog().PFNs()
	if len(d1) != 1 {
		t.Fatalf("L1 dirty pages = %v (nested write must dirty the containing L1 page)", d1)
	}
}

func TestGuestMemoryU64(t *testing.T) {
	_, vms := testStack(t, 1)
	gm := vms[0].Memory()
	addr := vms[0].MustAllocPages(1)
	if err := gm.WriteU64(addr, 0xfeedface12345678); err != nil {
		t.Fatal(err)
	}
	v, err := gm.ReadU64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xfeedface12345678 {
		t.Fatalf("u64 round trip = %#x", v)
	}
}

func TestVMMemoryBounds(t *testing.T) {
	_, vms := testStack(t, 1)
	vm := vms[0]
	if err := vm.Memory().Write(mem16GB, []byte{1}); err == nil {
		t.Fatal("write beyond VM RAM should fail")
	}
}

const mem16GB = 16 << 30

func TestAncestorAt(t *testing.T) {
	_, vms := testStack(t, 3)
	v3 := vms[2].VCPUs[2]
	a1, err := v3.AncestorAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if a1.VM != vms[0] {
		t.Fatal("wrong level-1 ancestor")
	}
	if _, err := v3.AncestorAt(5); err == nil {
		t.Fatal("AncestorAt beyond stack should fail")
	}
	a3, err := v3.AncestorAt(3)
	if err != nil || a3 != v3 {
		t.Fatal("AncestorAt(own level) should return self")
	}
}

// TestCPUBlocksKeepStatePerCPU holds the blocks CreateVM and machine.New
// allocate to one LAPIC, posted-interrupt descriptor and VMCS per CPU: no
// two vCPUs of a stack share one, each descriptor notifies its vCPU's
// physical CPU, no two pCPUs share a LAPIC, and a vector latched into one
// vCPU's LAPIC is pending on no other.
func TestCPUBlocksKeepStatePerCPU(t *testing.T) {
	w, vms := testStack(t, 3)
	seen := map[any]bool{}
	own := func(what string, p any) {
		if seen[p] {
			t.Errorf("%s shared between CPUs", what)
		}
		seen[p] = true
	}
	for _, c := range w.Host.Machine.CPUs {
		own("pCPU LAPIC", c.LAPIC)
	}
	target := vms[1].VCPUs[2]
	target.LAPIC.Deliver(apic.VectorVirtioIRQ)
	for _, vm := range vms {
		for _, v := range vm.VCPUs {
			own("LAPIC", v.LAPIC)
			own("PI descriptor", v.PID)
			own("VMCS", v.VMCS)
			if v.PID.NDst() != v.PhysCPU {
				t.Errorf("%s: descriptor notifies pCPU %d, vCPU runs on %d", v.Path(), v.PID.NDst(), v.PhysCPU)
			}
			if got := v.LAPIC.Pending(apic.VectorVirtioIRQ); got != (v == target) {
				t.Errorf("%s: vector pending = %v", v.Path(), got)
			}
		}
	}
}

func TestCreateVMValidation(t *testing.T) {
	m := machine.MustNew(machine.Config{Name: "t", CPUs: 2, MemoryBytes: 1 << 30})
	host := NewHost(m, KVM{})
	if _, err := host.CreateVM(VMConfig{Name: "bad", VCPUs: 0, MemBytes: 1 << 20}); err == nil {
		t.Fatal("zero vCPUs accepted")
	}
	if _, err := host.CreateVM(VMConfig{Name: "big", VCPUs: 1, MemBytes: 8 << 30}); err == nil {
		t.Fatal("overcommitted memory accepted")
	}
	if _, err := host.CreateVM(VMConfig{Name: "wide", VCPUs: 3, MemBytes: 1 << 20}); err == nil {
		t.Fatal("VM with more vCPUs than physical CPUs accepted")
	}
	l1, err := host.CreateVM(VMConfig{Name: "l1", VCPUs: 1, MemBytes: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	guest := l1.InstallHypervisor(KVM{}, "kvm-l1")
	if _, err := guest.CreateVM(VMConfig{Name: "wide-l2", VCPUs: 2, MemBytes: 1 << 20}); err == nil {
		t.Fatal("nested VM with more vCPUs than its parent VM accepted")
	}
}

func TestTimerFiresThroughEngine(t *testing.T) {
	w, vms := testStack(t, 1)
	v := vms[0].VCPUs[0]
	exec(t, w, v, ProgramTimer(uint64(w.Now())+5000))
	exec(t, w, v, Halt())
	if !v.Idle {
		t.Fatal("vCPU should be idle awaiting the timer")
	}
	w.RunUntil(w.Now() + 10_000)
	if v.Idle {
		t.Fatal("timer fire did not wake the vCPU")
	}
	if !v.LAPIC.Pending(apic.VectorTimer) {
		t.Fatal("timer interrupt not pending")
	}
}

func TestTracerRecordsExitStorm(t *testing.T) {
	w, vms := testStack(t, 2)
	rec := trace.NewRecorder(256)
	w.Tracer = rec
	stats := w.Host.Machine.Stats
	stats.Reset()
	exec(t, w, vms[1].VCPUs[0], Hypercall())
	if rec.Len() != stats.TotalHardwareExits() {
		t.Fatalf("tracer recorded %d events, stats counted %d exits", rec.Len(), stats.TotalHardwareExits())
	}
	evs := rec.Events()
	if evs[0].Reason != vmx.ExitVMCALL || evs[0].FromLevel != 2 || evs[0].HandlerLevel != 1 {
		t.Fatalf("first event should be the forwarded hypercall: %+v", evs[0])
	}
	for _, e := range evs[1:] {
		if e.FromLevel != 1 || e.HandlerLevel != 0 {
			t.Fatalf("trap-storm event should be L1->L0: %+v", e)
		}
	}

	// The delivery arm: an injection into L3 and the DeviceRX cascade on a
	// paravirtual L3 stack. Each injection and each cascade level is one
	// exit from the level above its handler; every other event is a
	// privileged instruction of a handler's trap storm, taken one level
	// down.
	w, vms = testStack(t, 3)
	var dev *AssignedDevice
	for _, vm := range vms {
		d, err := AttachParavirtNet(vm, "net-"+vm.Name)
		if err != nil {
			t.Fatal(err)
		}
		dev = d
	}
	v := vms[2].VCPUs[0]
	deliveries := []struct {
		name string
		run  func() sim.Cycles
		want []trace.Event
	}{
		{"DeliverTimerIRQ", func() sim.Cycles { return w.DeliverTimerIRQ(v) },
			[]trace.Event{{Reason: vmx.ExitExternalInterrupt, FromLevel: 3, HandlerLevel: 2}}},
		{"DeviceRX", func() sim.Cycles { return w.DeviceRX(dev, v) },
			[]trace.Event{
				{Reason: vmx.ExitEPTViolation, FromLevel: 2, HandlerLevel: 1},
				{Reason: vmx.ExitEPTViolation, FromLevel: 3, HandlerLevel: 2},
			}},
	}
	for _, d := range deliveries {
		rec := trace.NewRecorder(1 << 12)
		w.Tracer = rec
		stats := w.Host.Machine.Stats
		stats.Reset()
		d.run()
		if rec.Len() != stats.TotalHardwareExits() || rec.Len() > 1<<12 {
			t.Fatalf("%s: tracer recorded %d events, stats counted %d exits", d.name, rec.Len(), stats.TotalHardwareExits())
		}
		var got []trace.Event
		for _, e := range rec.Events() {
			switch e.Reason {
			case vmx.ExitVMREAD, vmx.ExitVMPTRLD, vmx.ExitVMRESUME:
				if e.HandlerLevel != e.FromLevel-1 {
					t.Fatalf("%s: trap-storm event should be handled one level down: %+v", d.name, e)
				}
			default:
				got = append(got, trace.Event{Reason: e.Reason, FromLevel: e.FromLevel, HandlerLevel: e.HandlerLevel})
			}
		}
		if !reflect.DeepEqual(got, d.want) {
			t.Fatalf("%s: delivery exits %+v, want %+v", d.name, got, d.want)
		}
	}
}
