package hyper

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/machine"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/vmx"
)

func TestExecuteUnknownDoorbellErrors(t *testing.T) {
	w, vms := testStack(t, 1)
	if _, err := w.Execute(vms[0].VCPUs[0], DevNotify(0xdead0000)); err == nil {
		t.Fatal("kick to unmapped MMIO accepted")
	}
}

func TestIPIToMissingVCPUErrors(t *testing.T) {
	w, vms := testStack(t, 1)
	if _, err := w.Execute(vms[0].VCPUs[0], SendIPI(99, apic.VectorReschedule)); err == nil {
		t.Fatal("IPI to missing vCPU accepted")
	}
}

// TestUnknownOpErrors: an Op whose Kind is no OpKind fails whichever level
// owns its exit, the host or a guest hypervisor.
func TestUnknownOpErrors(t *testing.T) {
	for depth := 1; depth <= 2; depth++ {
		w, vms := testStack(t, depth)
		if _, err := w.Execute(vms[depth-1].VCPUs[0], Op{Kind: 99}); err == nil {
			t.Errorf("depth %d: op of unknown kind accepted", depth)
		}
	}
}

// TestRunUntilFiresEveryDueTimer: one RunUntil fires every host timer due
// by its limit and delivers each one's interrupt, leaves a later timer
// queued for a later call, and stops the clock at the limit.
func TestRunUntilFiresEveryDueTimer(t *testing.T) {
	w, vms := testStack(t, 1)
	start := uint64(w.Now())
	deadlines := []uint64{start + 1000, start + 2000, start + 5000}
	for i, d := range deadlines {
		exec(t, w, vms[0].VCPUs[i], ProgramTimer(d))
	}
	until := sim.Time(start + 3000)
	w.RunUntil(until)
	for i, d := range deadlines {
		due := sim.Time(d) <= until
		if got := vms[0].VCPUs[i].LAPIC.Pending(apic.VectorTimer); got != due {
			t.Errorf("vCPU %d, deadline %d, run to %d: timer vector pending = %v, want %v", i, d, until, got, due)
		}
	}
	if w.Now() != until {
		t.Fatalf("clock at %d, want %d", w.Now(), until)
	}
	w.RunUntil(sim.Time(deadlines[2]))
	if !vms[0].VCPUs[2].LAPIC.Pending(apic.VectorTimer) {
		t.Error("the timer due after the first limit did not fire in the next RunUntil")
	}
}

func TestEOIWithoutAPICvTakesExit(t *testing.T) {
	m := machine.MustNew(machine.Config{
		Name: "noapicv", CPUs: 4, MemoryBytes: 8 << 30,
		Caps: vmx.HardwareCaps.Without(vmx.CapAPICv),
	})
	host := NewHost(m, KVM{})
	w := NewWorld(host)
	l1, err := host.CreateVM(VMConfig{Name: "L1", VCPUs: 2, MemBytes: 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats.TotalHardwareExits()
	cost, err := w.Execute(l1.VCPUs[0], EOI())
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.TotalHardwareExits() != before+1 {
		t.Fatal("EOI without APICv must exit")
	}
	if cost < 1000 {
		t.Fatalf("EOI exit cost %v; expected full exit magnitude", cost)
	}
}

func TestDeviceRXPassthroughSkipsBackends(t *testing.T) {
	w, vms := testStack(t, 2)
	vms[0].ProvideVIOMMU(true)
	vfs, err := w.Host.Machine.CreateVFs(1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := AttachPassthroughNIC(vms[1], vfs[0])
	if err != nil {
		t.Fatal(err)
	}
	stats := w.Host.Machine.Stats
	stats.Reset()
	cost := w.DeviceRX(dev, vms[1].VCPUs[0])
	// Posted straight into the VM: no exits, no virtio backend work.
	if stats.TotalHardwareExits() != 0 {
		t.Fatal("passthrough RX caused exits")
	}
	if cost != w.Costs.InjectPostedRunning {
		t.Fatalf("passthrough RX cost %v", cost)
	}
	if w.Host.Machine.NIC.RxFrames != 1 {
		t.Fatal("frame not counted at the NIC")
	}
}

func TestDeviceRXCascadeCostGrowsWithProviderLevel(t *testing.T) {
	w2, vms2 := testStack(t, 2)
	if _, err := AttachParavirtNet(vms2[0], "n0"); err != nil {
		t.Fatal(err)
	}
	dev2, err := AttachParavirtNet(vms2[1], "n1")
	if err != nil {
		t.Fatal(err)
	}
	rx2 := w2.DeviceRX(dev2, vms2[1].VCPUs[0])

	w1, vms1 := testStack(t, 1)
	dev1, err := AttachParavirtNet(vms1[0], "n0")
	if err != nil {
		t.Fatal(err)
	}
	rx1 := w1.DeviceRX(dev1, vms1[0].VCPUs[0])
	if rx2 < 5*rx1 {
		t.Fatalf("nested RX (%v) should dwarf single-level RX (%v): the L1 backend interposes", rx2, rx1)
	}
}

func TestCostModelHostExitCost(t *testing.T) {
	// An exit handled entirely at the host costs its hardware round trip,
	// the host dispatch and the handler work.
	c := DefaultCosts()
	hostExit := func(work sim.Cycles) sim.Cycles { return c.HwExit + c.HostDispatch + work + c.HwEntry }
	if got := hostExit(0); got != 1575 {
		t.Fatalf("null host exit = %v", got)
	}
	if got := hostExit(c.VirtioBackendWork); got != 4984 {
		t.Fatalf("DevNotify host exit = %v", got)
	}
}

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpHypercall: "Hypercall", OpDevNotify: "DevNotify", OpTimerProgram: "ProgramTimer",
		OpSendIPI: "SendIPI", OpHLT: "HLT", OpEOI: "EOI", OpMemTouch: "MemTouch",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k, s)
		}
	}
	if OpKind(99).String() != "Op(99)" {
		t.Errorf("unknown op rendering: %q", OpKind(99))
	}
}

func TestDepthCostMonotonicityProperty(t *testing.T) {
	// The core invariant behind every figure: forwarded cost strictly grows
	// with depth for every operation kind that forwards.
	for _, mk := range []struct {
		name string
		op   func(*VM) Op
	}{
		{"hypercall", func(*VM) Op { return Hypercall() }},
		{"timer", func(*VM) Op { return ProgramTimer(10_000) }},
		{"ipi", func(*VM) Op { return SendIPI(1, apic.VectorReschedule) }},
		{"hlt", func(*VM) Op { return Halt() }},
	} {
		var prev sim.Cycles
		for depth := 1; depth <= 3; depth++ {
			w, vms := testStack(t, depth)
			v := vms[depth-1].VCPUs[0]
			c := exec(t, w, v, mk.op(vms[depth-1]))
			if depth > 1 && float64(c) < 5*float64(prev) {
				t.Errorf("%s: depth %d cost %v not well above depth %d cost %v", mk.name, depth, c, depth-1, prev)
			}
			prev = c
		}
	}
}

// TestAttachParavirtDevices pins what the two paravirtual attach calls give
// a VM: the net device in the first bus slot, bound to virtio-net, on
// VectorVirtioIRQ; the blk device in the next, bound to virtio-blk, on the
// vector after it; for a nested VM, the provider VM's device of the same
// class as the cascade's lower link, and an error naming the class when the
// provider VM has none.
func TestAttachParavirtDevices(t *testing.T) {
	_, vms := testStack(t, 2)
	var lower [2]*AssignedDevice
	for _, vm := range vms {
		net, err := AttachParavirtNet(vm, "net-"+vm.Name)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := AttachParavirtBlk(vm, "blk-"+vm.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []struct {
			dev    *AssignedDevice
			fn     *pci.Function
			class  DeviceClass
			driver string
			irq    apic.Vector
		}{
			{net, net.Net.Fn, DevNet, "virtio-net", apic.VectorVirtioIRQ},
			{blk, blk.Blk.Fn, DevBlk, "virtio-blk", apic.VectorVirtioIRQ + 1},
		} {
			d := want.dev
			if d.Class != want.class || d.IRQ != want.irq || want.fn.Driver() != want.driver || int(want.fn.Addr.Device) != i ||
				d.ProviderLevel != vm.Level-1 || d.Lower != lower[i] || vm.Devices[i] != d {
				t.Errorf("%s: class %v, vector %v, driver %q, bus slot %d, provider L%d, lower %p, device %d; want %v, %v, %q, %d, L%d, %p, %d",
					d.Name, d.Class, d.IRQ, want.fn.Driver(), want.fn.Addr.Device, d.ProviderLevel, d.Lower, i,
					want.class, want.irq, want.driver, i, vm.Level-1, lower[i], i)
			}
			lower[i] = d
		}
	}

	_, vms = testStack(t, 2)
	for _, c := range []struct {
		attach func(*VM, string) (*AssignedDevice, error)
		name   string
		want   string
	}{
		{AttachParavirtNet, "net", "hyper: net: provider VM L1-vm has no net device to back the cascade"},
		{AttachParavirtBlk, "blk", "hyper: blk: provider VM L1-vm has no blk device to back the cascade"},
	} {
		if _, err := c.attach(vms[1], c.name); err == nil || err.Error() != c.want {
			t.Errorf("%s on an L2 VM whose provider has none: %v, want %q", c.name, err, c.want)
		}
	}
}
