package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vmx"
)

// buildStack assembles a nesting stack of the given depth with DVH enabled
// at the given feature set and the innermost VM configured.
func buildStack(t testing.TB, depth int, f Features) (*DVH, *hyper.World, []*hyper.VM) {
	t.Helper()
	m := machine.MustNew(machine.Config{
		Name: "dvh-test", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps, NICVFs: 4,
	})
	host := hyper.NewHost(m, hyper.KVM{})
	w := hyper.NewWorld(host)
	d, err := Enable(w, f)
	if err != nil {
		t.Fatal(err)
	}
	var vms []*hyper.VM
	h := host
	memBytes := uint64(16 << 30)
	for lvl := 1; lvl <= depth; lvl++ {
		vm, err := h.CreateVM(hyper.VMConfig{Name: names[lvl], VCPUs: 4, MemBytes: memBytes})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
		if lvl < depth {
			h = vm.InstallHypervisor(hyper.KVM{}, "kvm-"+names[lvl])
			memBytes -= 4 << 30
		}
	}
	if depth >= 2 {
		if err := d.ConfigureVM(vms[depth-1]); err != nil {
			t.Fatal(err)
		}
	}
	return d, w, vms
}

var names = []string{"", "L1-vm", "L2-vm", "L3-vm", "L4-vm"}

func exec(t testing.TB, w *hyper.World, v *hyper.VCPU, op hyper.Op) sim.Cycles {
	t.Helper()
	c, err := w.Execute(v, op)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func within(t *testing.T, name string, got, lo, hi sim.Cycles) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %v cycles, want within [%v, %v]", name, got, lo, hi)
	} else {
		t.Logf("%s = %v cycles (band [%v, %v])", name, got, lo, hi)
	}
}

func TestDVHCapabilityAdvertised(t *testing.T) {
	d, w, vms := buildStack(t, 2, FeaturesAll)
	if !w.Host.Caps.Has(vmx.CapVirtualTimer | vmx.CapVirtualIPI) {
		t.Fatal("host does not advertise DVH virtual hardware")
	}
	// The L1 VM (hence its guest hypervisor) must see the capability too.
	if !vms[0].Caps.Has(vmx.CapVirtualTimer) {
		t.Fatal("guest hypervisor cannot discover virtual timers")
	}
	_ = d
}

func TestVirtualTimerTable3(t *testing.T) {
	// Paper Table 3: ProgramTimer nested+DVH = 3,247; L3+DVH = 3,304.
	// The defining property: DVH keeps the cost at non-nested magnitude
	// (2,005) regardless of depth, versus ~43k/1M without DVH.
	_, w2, vms2 := buildStack(t, 2, FeaturesAll)
	l2 := exec(t, w2, vms2[1].VCPUs[0], hyper.ProgramTimer(50_000))
	within(t, "L2 ProgramTimer+DVH", l2, 2_900, 3_600)

	_, w3, vms3 := buildStack(t, 3, FeaturesAll)
	l3 := exec(t, w3, vms3[2].VCPUs[0], hyper.ProgramTimer(50_000))
	within(t, "L3 ProgramTimer+DVH", l3, 3_000, 3_800)
	if l3 <= l2 {
		t.Errorf("L3 (%v) should cost slightly more than L2 (%v): one more TSC offset to combine", l3, l2)
	}
	if stats := w2.Host.Machine.Stats; stats.GuestHypervisorExits() != 0 {
		t.Errorf("virtual timer still produced %d guest hypervisor exits", stats.GuestHypervisorExits())
	}
}

func TestVirtualTimerOffsetsCombine(t *testing.T) {
	_, w, vms := buildStack(t, 2, FeaturesAll)
	v := vms[1].VCPUs[0]
	// The L1 hypervisor programmed a TSC offset for the nested VM, and the
	// host programmed one for the L1 VM: both must apply.
	v.VMCS.SetTSCOffset(-1000)
	v.Parent.VMCS.SetTSCOffset(-2000)
	exec(t, w, v, hyper.ProgramTimer(10_000))
	if got := v.LAPIC.TSCDeadline(); got != 7_000 {
		t.Fatalf("combined deadline = %d, want 7000 (offsets applied)", got)
	}
}

func TestVirtualTimerFiresAndWakes(t *testing.T) {
	_, w, vms := buildStack(t, 2, FeaturesAll)
	v := vms[1].VCPUs[0]
	exec(t, w, v, hyper.ProgramTimer(uint64(w.Now())+4000))
	exec(t, w, v, hyper.Halt())
	if !v.Idle {
		t.Fatal("vCPU not idle")
	}
	w.RunUntil(w.Now() + 8000)
	if v.Idle {
		t.Fatal("virtual timer did not wake the nested vCPU")
	}
	if !v.LAPIC.Pending(apic.VectorTimer) {
		t.Fatal("timer interrupt not delivered")
	}
}

func TestVirtualIPITable3(t *testing.T) {
	// Paper Table 3: SendIPI nested+DVH = 5,116; L3+DVH = 5,228.
	_, w2, vms2 := buildStack(t, 2, FeaturesAll)
	dest := vms2[1].VCPUs[1]
	exec(t, w2, dest, hyper.Halt()) // destination idles (at the host, thanks to virtual idle)
	stats := w2.Host.Machine.Stats
	stats.Reset()
	l2 := exec(t, w2, vms2[1].VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule))
	within(t, "L2 SendIPI+DVH", l2, 4_600, 5_700)
	if dest.Idle {
		t.Fatal("destination not woken")
	}
	if !dest.LAPIC.Pending(apic.VectorReschedule) {
		t.Fatal("IPI not delivered")
	}
	if stats.GuestHypervisorExits() != 0 {
		t.Errorf("virtual IPI produced %d guest hypervisor exits", stats.GuestHypervisorExits())
	}

	_, w3, vms3 := buildStack(t, 3, FeaturesAll)
	dest3 := vms3[2].VCPUs[1]
	exec(t, w3, dest3, hyper.Halt())
	l3 := exec(t, w3, vms3[2].VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule))
	within(t, "L3 SendIPI+DVH", l3, 4_700, 5_900)
	if l3 <= l2 {
		t.Errorf("L3 send (%v) should cost slightly more than L2 (%v)", l3, l2)
	}
}

func TestVCIMTIsRealGuestMemory(t *testing.T) {
	d, _, vms := buildStack(t, 2, FeaturesAll)
	table, ok := d.vcimts[vms[1]]
	if !ok {
		t.Fatal("no VCIMT registered")
	}
	// The table entries live in the L1 VM's memory; corrupting them through
	// ordinary guest memory writes must break lookups.
	dest, err := table.Lookup(2)
	if err != nil {
		t.Fatal(err)
	}
	if dest != vms[1].VCPUs[2] {
		t.Fatal("VCIMT resolved the wrong vCPU")
	}
	if err := vms[0].Memory().WriteU64(table.Base+16, 999); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Lookup(2); err == nil {
		t.Fatal("lookup through corrupted VCIMT entry should fail")
	}
	if _, err := d.World.Execute(vms[1].VCPUs[0], hyper.SendIPI(2, apic.VectorReschedule)); err == nil {
		t.Fatal("virtual IPI through corrupted VCIMT entry should fail")
	}
	// VCIMTAR must be published in the nested vCPUs' execution controls.
	if vms[1].VCPUs[0].VMCS.Read(vmx.FieldVCIMTAR) != uint64(table.Base) {
		t.Fatal("VCIMTAR not programmed")
	}
}

func TestVirtualIdleTable3(t *testing.T) {
	// With virtual idle, a nested HLT is host-owned: cost collapses from a
	// forwarded exit (~40k) to host-idle magnitude.
	_, w, vms := buildStack(t, 2, FeaturesAll)
	v := vms[1].VCPUs[0]
	got := exec(t, w, v, hyper.Halt())
	if got > 4000 {
		t.Errorf("virtual-idle HLT = %v cycles, want host-idle magnitude", got)
	}
	if !v.Idle {
		t.Fatal("vCPU not idle")
	}
	if w.Host.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("virtual idle still exited to a guest hypervisor")
	}
}

func TestVirtualIdlePolicyMultipleNestedVMs(t *testing.T) {
	// Section 3.4: the guest hypervisor only yields HLT interposition when
	// it has no other nested VM to schedule.
	d, _, vms := buildStack(t, 2, FeaturesAll)
	gh := vms[0].GuestHyp
	second, err := gh.CreateVM(hyper.VMConfig{Name: "L2-vm-b", VCPUs: 4, MemBytes: 2 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ConfigureVM(vms[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.ConfigureVM(second); err != nil {
		t.Fatal(err)
	}
	for _, v := range vms[1].VCPUs {
		if !v.VMCS.ControlSet(vmx.FieldProcBasedControls, vmx.ProcHLTExiting) {
			t.Fatal("guest hypervisor with two nested VMs must keep trapping HLT")
		}
	}
}

func TestVirtualPassthroughTable3(t *testing.T) {
	// Paper Table 3: DevNotify nested+DVH = 13,815 (vs 4,984 at one level):
	// the premium is the host's software EPT walk validating the fault.
	d, w, vms := buildStack(t, 2, FeaturesAll)
	dev, err := d.AttachVirtualPassthroughNet(vms[1], "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	stats := w.Host.Machine.Stats
	stats.Reset()
	got := exec(t, w, vms[1].VCPUs[0], hyper.DevNotify(dev.Doorbell))
	within(t, "L2 DevNotify+DVH-VP", got, 12_500, 15_500)
	if stats.GuestHypervisorExits() != 0 {
		t.Errorf("VP kick produced %d guest hypervisor exits", stats.GuestHypervisorExits())
	}
	if stats.Counter("dvh.vp.kicks") != 1 {
		t.Error("VP kick not counted")
	}
}

func TestVirtualPassthroughL3(t *testing.T) {
	// Paper Table 3: DevNotify L3+DVH = 15,150 — still host-handled, one
	// more vIOMMU level in the chain but no guest hypervisor on the path.
	d, w, vms := buildStack(t, 3, FeaturesAll)
	dev, err := d.AttachVirtualPassthroughNet(vms[2], "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	got := exec(t, w, vms[2].VCPUs[0], hyper.DevNotify(dev.Doorbell))
	within(t, "L3 DevNotify+DVH-VP", got, 12_500, 17_000)
	if w.Host.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("L3 VP kick involved a guest hypervisor")
	}
}

// TestVPDataPathMovesBytesThroughShadow: the nested VM posts a TX frame
// through real virtio rings and the host backend reads it through the
// combined shadow translation, at depth 2 and at depth 3, where two vIOMMU
// domains compose. Every shadow entry must then map its frame where walking
// the domain tables does, from the nested VM's level down to L1.
func TestVPDataPathMovesBytesThroughShadow(t *testing.T) {
	for _, depth := range []int{2, 3} {
		t.Run(fmt.Sprintf("L%d", depth), func(t *testing.T) {
			d, w, vms := buildStack(t, depth, FeaturesAll)
			nested := vms[depth-1]
			dev, err := d.AttachVirtualPassthroughNet(nested, "vp-net0")
			if err != nil {
				t.Fatal(err)
			}
			vp, _ := d.VPStateOf(dev)

			gm := nested.Memory()
			dq, err := newDriverQueue(gm, nested.MustAllocPages(4), 8)
			if err != nil {
				t.Fatal(err)
			}
			desc, avail, used := dq.Rings()
			dev.Net.AttachQueue(1, newQueue(dev.DMAView, 8, desc, avail, used))

			frameAddr := nested.MustAllocPages(1)
			payload := []byte("nested frame via DVH virtual-passthrough")
			if err := gm.Write(frameAddr, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := dq.Submit([]vdesc{{Addr: frameAddr, Len: uint32(len(payload))}}); err != nil {
				t.Fatal(err)
			}
			exec(t, w, nested.VCPUs[0], hyper.DevNotify(dev.Doorbell))
			if dev.Net.TxFrames != 1 {
				t.Fatalf("backend transmitted %d frames, want 1", dev.Net.TxFrames)
			}
			if _, err := dq.Submit(nil); err == nil {
				t.Fatal("empty submit should fail")
			}
			// The "guest hypervisors" must have programmed every vIOMMU
			// domain, and the shadow table must hold their composition.
			if len(vp.Domains) != depth-1 {
				t.Fatalf("%d vIOMMU domains, want %d", len(vp.Domains), depth-1)
			}
			for i, dom := range vp.Domains {
				if dom.Table.Mapped() == 0 {
					t.Fatalf("L%d vIOMMU domain not programmed", i+1)
				}
			}
			if vp.Shadow.Mapped() == 0 {
				t.Fatal("shadow table empty after DMA")
			}
			vp.Shadow.ForEachEntry(func(e mem.Entry) {
				f := e.From
				for i := len(vp.Domains) - 1; i >= 0; i-- {
					w := vp.Domains[i].Table.Lookup(f, 0)
					if !w.Present {
						t.Fatalf("shadow maps frame %#x, but the L%d vIOMMU domain does not map %#x", uint64(e.From), i+1, uint64(f))
					}
					f = w.PFN
				}
				if e.To != f {
					t.Fatalf("shadow maps frame %#x to L1 frame %#x; the domain tables give %#x", uint64(e.From), uint64(e.To), uint64(f))
				}
			})
		})
	}
}

func TestVPDMAWritesInvisibleToGuestDirtyLog(t *testing.T) {
	// The core migration problem of Section 3.6: device DMA dirties pages
	// the guest hypervisor cannot see. Host-side logging must catch them;
	// the nested VM's own dirty log must not.
	d, _, vms := buildStack(t, 2, FeaturesAll)
	l2 := vms[1]
	dev, err := d.AttachVirtualPassthroughNet(l2, "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	vp, _ := d.VPStateOf(dev)
	l2.StartDirtyLog()
	buf := l2.MustAllocPages(1)
	if err := dev.DMAView.Write(buf, []byte("dma payload")); err != nil {
		t.Fatal(err)
	}
	if got := l2.DirtyLog().PFNs(); len(got) != 0 {
		t.Fatalf("guest-visible dirty log saw DMA pages %v; it must not", got)
	}
	dma := vp.HostDirty.PFNs()
	if len(dma) != 1 || dma[0] != pageOf(buf) {
		t.Fatalf("host DMA dirty log = %v, want [%d]", dma, pageOf(buf))
	}
	// CPU writes still land in the guest-visible log.
	if err := l2.Memory().Write(buf, []byte("cpu write")); err != nil {
		t.Fatal(err)
	}
	if got := l2.DirtyLog().PFNs(); len(got) != 1 {
		t.Fatalf("CPU write dirty log = %v", got)
	}
}

func TestVPMigrationCapability(t *testing.T) {
	d, _, vms := buildStack(t, 2, FeaturesAll)
	dev, err := d.AttachVirtualPassthroughNet(vms[1], "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	vp, _ := d.VPStateOf(dev)
	fn := dev.Net.Fn
	if !pciHasMigrationCap(fn) {
		t.Fatal("VP device does not advertise the migration capability")
	}
	// Guest hypervisor flow: enable dirty logging, capture state.
	if err := vp.MigCap.GuestWriteCtrl(pciMigDirtyLog | pciMigCapture); err != nil {
		t.Fatal(err)
	}
	if !vp.DirtyLogging {
		t.Fatal("dirty logging not propagated to host")
	}
	blob := vp.MigCap.CapturedState()
	if len(blob) == 0 {
		t.Fatal("no device state captured")
	}
	dev.Net.TxFrames = 99
	if err := RestoreVPDeviceState(dev, blob); err != nil {
		t.Fatal(err)
	}
	if dev.Net.TxFrames != 0 {
		t.Fatal("restore did not reinstate captured state")
	}
	if err := RestoreVPDeviceState(dev, []byte("junk")); err == nil {
		t.Fatal("corrupt blob accepted")
	}
}

func TestVPRejectsNonNestedAndDisabled(t *testing.T) {
	d, _, vms := buildStack(t, 2, FeaturesAll)
	if _, err := d.AttachVirtualPassthroughNet(vms[0], "bad"); err == nil {
		t.Fatal("VP to a level-1 VM should be rejected")
	}
	d2, _, vms2 := buildStack(t, 2, FeatureVirtualTimers)
	if _, err := d2.AttachVirtualPassthroughNet(vms2[1], "bad"); err == nil {
		t.Fatal("VP without the feature should be rejected")
	}
}

func TestRecursiveEnableBitsANDCombine(t *testing.T) {
	// Section 3.5: if any intermediate hypervisor disables a DVH feature,
	// the nested VM must fall back to forwarded emulation.
	d, w, vms := buildStack(t, 3, FeaturesAll)
	fast := exec(t, w, vms[2].VCPUs[0], hyper.ProgramTimer(10_000))
	d.DisableAt(vms[1].GuestHyp, FeatureVirtualTimers)
	slow := exec(t, w, vms[2].VCPUs[0], hyper.ProgramTimer(10_000))
	if slow < 20*fast {
		t.Errorf("timer with L2 hypervisor disabled = %v, DVH = %v; disable must force forwarding", slow, fast)
	}
	// Virtual IPIs were not disabled and must keep working.
	ipi := exec(t, w, vms[2].VCPUs[0], hyper.SendIPI(1, apic.VectorReschedule))
	if ipi > 8000 {
		t.Errorf("unrelated virtual IPI regressed to %v cycles", ipi)
	}
}

func TestHypercallUnaffectedByDVH(t *testing.T) {
	// Paper Table 3: Hypercall nested+DVH = 38,743, slightly *worse* than
	// without DVH (37,733): the host checks and must still forward.
	_, w, vms := buildStack(t, 2, FeaturesAll)
	got := exec(t, w, vms[1].VCPUs[0], hyper.Hypercall())
	within(t, "L2 Hypercall+DVH", got, 31_000, 47_000)
	if w.Host.Machine.Stats.TotalHandledAt(1) == 0 {
		t.Fatal("hypercall must still reach the guest hypervisor")
	}
}

func TestStatsReportMentionsDVH(t *testing.T) {
	d, w, vms := buildStack(t, 2, FeaturesAll)
	dev, err := d.AttachVirtualPassthroughNet(vms[1], "vp-net0")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, w, vms[1].VCPUs[0], hyper.DevNotify(dev.Doorbell))
	exec(t, w, vms[1].VCPUs[0], hyper.ProgramTimer(1000))
	out := w.Host.Machine.Stats.String()
	for _, want := range []string{"dvh.vp.kicks", "dvh.vtimer.programs"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q:\n%s", want, out)
		}
	}
}
