// Ablation benchmarks for the design choices behind the headline results:
// nesting depth, VMCS shadowing, vIOMMU posted interrupts, the direct
// timer-delivery extension, and the virtual-idle policy. Each reports the
// simulated cycle cost of the affected operation so the contribution of the
// mechanism is directly visible in benchmark output.
package nvsim_test

import (
	"fmt"
	"testing"

	nvsim "repro"
	"repro/internal/apic"
	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/vmx"
)

// BenchmarkAblationDepthSweep measures the null hypercall from depth 1
// through 4, exposing the ~24x-per-level exit-multiplication growth (depth 4
// exceeds what real KVM supports; the simulator extends the recursion).
func BenchmarkAblationDepthSweep(b *testing.B) {
	for depth := 1; depth <= 4; depth++ {
		b.Run(fmt.Sprintf("L%d", depth), func(b *testing.B) {
			st, err := nvsim.Build(nvsim.Spec{Depth: depth, IO: nvsim.IOParavirt})
			if err != nil {
				b.Fatal(err)
			}
			var cycles nvsim.Cycles
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := st.World.Execute(st.Target.VCPUs[0], nvsim.Hypercall())
				if err != nil {
					b.Fatal(err)
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "cycles/op")
		})
	}
}

// shadowStack builds an L2 stack with or without VMCS shadowing hardware.
func shadowStack(b *testing.B, shadowing bool) (*hyper.World, *hyper.VM) {
	b.Helper()
	caps := vmx.HardwareCaps
	if !shadowing {
		caps = caps.Without(vmx.CapVMCSShadowing)
	}
	m := machine.MustNew(machine.Config{Name: "ablate", CPUs: 10, MemoryBytes: 64 << 30, Caps: caps})
	host := hyper.NewHost(m, hyper.KVM{})
	w := hyper.NewWorld(host)
	l1, err := host.CreateVM(hyper.VMConfig{Name: "L1", VCPUs: 6, MemBytes: 24 << 30})
	if err != nil {
		b.Fatal(err)
	}
	gh := l1.InstallHypervisor(hyper.KVM{}, "kvm-L1")
	l2, err := gh.CreateVM(hyper.VMConfig{Name: "L2", VCPUs: 4, MemBytes: 12 << 30})
	if err != nil {
		b.Fatal(err)
	}
	return w, l2
}

// BenchmarkAblationVMCSShadowing isolates the contribution of shadow-VMCS
// hardware to nested exit cost: without it, every vmcs12 access in the guest
// hypervisor's handler becomes a trapped VMREAD/VMWRITE.
func BenchmarkAblationVMCSShadowing(b *testing.B) {
	for _, mode := range []struct {
		label     string
		shadowing bool
	}{{"WithShadowing", true}, {"WithoutShadowing", false}} {
		b.Run(mode.label, func(b *testing.B) {
			w, l2 := shadowStack(b, mode.shadowing)
			var cycles nvsim.Cycles
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := w.Execute(l2.VCPUs[0], nvsim.Hypercall())
				if err != nil {
					b.Fatal(err)
				}
				cycles = c
			}
			b.ReportMetric(float64(cycles), "cycles/op")
		})
	}
}

// BenchmarkAblationTimerDelivery compares the Section 3.2 direct-delivery
// extension against routing fired virtual-timer interrupts through the guest
// hypervisor's injection path.
func BenchmarkAblationTimerDelivery(b *testing.B) {
	for _, mode := range []struct {
		label    string
		features core.Features
	}{
		{"Direct", core.FeaturesAll},
		{"ThroughGuestHypervisor", core.FeaturesAll &^ core.FeatureDirectTimerDelivery},
	} {
		b.Run(mode.label, func(b *testing.B) {
			st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH, Features: mode.features})
			if err != nil {
				b.Fatal(err)
			}
			v := st.Target.VCPUs[0]
			var cycles nvsim.Cycles
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycles = st.World.DeliverTimerIRQ(v)
			}
			b.ReportMetric(float64(cycles), "cycles/op")
		})
	}
}

// BenchmarkAblationVIOMMUPostedInterrupts compares VP completion-interrupt
// delivery with and without posted-interrupt support in the virtual IOMMU
// (the first increment of Figure 8).
func BenchmarkAblationVIOMMUPostedInterrupts(b *testing.B) {
	for _, mode := range []struct {
		label    string
		features core.Features
	}{
		{"Posted", core.FeatureVirtualPassthrough | core.FeatureVIOMMUPostedInterrupts},
		{"ExitPath", core.FeatureVirtualPassthrough},
	} {
		b.Run(mode.label, func(b *testing.B) {
			st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVHVP, Features: mode.features})
			if err != nil {
				b.Fatal(err)
			}
			v := st.Target.VCPUs[0]
			var cycles nvsim.Cycles
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycles = st.World.DeliverDeviceIRQ(st.Net, v)
			}
			b.ReportMetric(float64(cycles), "cycles/op")
		})
	}
}

// BenchmarkAblationVirtualIdle compares the HLT + wake round trip with and
// without the virtual-idle mechanism.
func BenchmarkAblationVirtualIdle(b *testing.B) {
	for _, mode := range []struct {
		label    string
		features core.Features
	}{
		{"VirtualIdle", core.FeaturesAll},
		{"ForwardedIdle", core.FeaturesAll &^ core.FeatureVirtualIdle},
	} {
		b.Run(mode.label, func(b *testing.B) {
			st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH, Features: mode.features})
			if err != nil {
				b.Fatal(err)
			}
			v := st.Target.VCPUs[0]
			var cycles nvsim.Cycles
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := st.World.Execute(v, nvsim.Halt())
				if err != nil {
					b.Fatal(err)
				}
				cycles = c + st.World.WakeIfIdle(v)
			}
			b.ReportMetric(float64(cycles), "cycles/op")
		})
	}
}

// BenchmarkAblationVCIMTDepth measures the virtual-IPI send cost across
// nesting depths: the VCIMT keeps it near-constant while the forwarded path
// grows multiplicatively.
func BenchmarkAblationVCIMTDepth(b *testing.B) {
	for depth := 2; depth <= 4; depth++ {
		for _, mode := range []struct {
			label string
			io    nvsim.IOMode
		}{{"DVH", nvsim.IODVH}, {"Forwarded", nvsim.IOParavirt}} {
			b.Run(fmt.Sprintf("L%d/%s", depth, mode.label), func(b *testing.B) {
				st, err := nvsim.Build(nvsim.Spec{Depth: depth, IO: mode.io})
				if err != nil {
					b.Fatal(err)
				}
				v := st.Target.VCPUs[0]
				var cycles nvsim.Cycles
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := st.World.Execute(v, nvsim.SendIPI(1, apic.VectorReschedule))
					if err != nil {
						b.Fatal(err)
					}
					cycles = c
				}
				b.ReportMetric(float64(cycles), "cycles/op")
			})
		}
	}
}
