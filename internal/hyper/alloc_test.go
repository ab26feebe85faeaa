package hyper

import (
	"testing"

	"repro/internal/apic"
)

// nestedOpStack builds a depth-2 stack with a paravirtual net device on the
// innermost VM, the shape the steady-state exit path benchmarks exercise.
func nestedOpStack(t testing.TB, depth int) (*World, *VCPU, *AssignedDevice) {
	w, vms := testStack(t, depth)
	// The paravirtual cascade needs a device at every level: each backend
	// kicks the device of the level below to reach hardware.
	var net *AssignedDevice
	for _, vm := range vms {
		var err error
		if net, err = AttachParavirtNet(vm, "bench-net"); err != nil {
			t.Fatal(err)
		}
	}
	return w, vms[depth-1].VCPUs[0], net
}

// steadyOps are the exit kinds whose handling must be allocation-free in
// steady state: the forwarded-exit recursion (hypercall), the virtio kick
// cascade (doorbell), IPI send+wake, and EOI. Timer programming and HLT are
// excluded by design — they schedule engine events and run the scheduler,
// which legitimately grow data structures.
func steadyOps(w *World, v *VCPU, net *AssignedDevice) []Op {
	dest := uint32((v.ID + 1) % len(v.VM.VCPUs))
	return []Op{
		Hypercall(),
		DevNotify(net.Doorbell),
		SendIPI(dest, apic.VectorReschedule),
		EOI(),
	}
}

// TestExecuteNestedAllocFree is the contract behind the parallel harness's
// GC behavior: once warm, Execute allocates nothing, so saturating the
// worker pool with Worlds adds no cross-goroutine GC pressure.
func TestExecuteNestedAllocFree(t *testing.T) {
	for _, depth := range []int{2, 3} {
		w, v, net := nestedOpStack(t, depth)
		ops := steadyOps(w, v, net)
		// Warm caches: the plan table, scheduler scratch.
		for _, op := range ops {
			if _, err := w.Execute(v, op); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range ops {
			op := op
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := w.Execute(v, op); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("depth %d: Execute(%v) allocates %.1f times per op in steady state, want 0",
					depth, op.Kind, allocs)
			}
		}
	}
}

// BenchmarkExecuteNested measures the host-side speed of the full nested
// exit mix with allocation reporting — the number to watch is allocs/op,
// which must stay at 0.
func BenchmarkExecuteNested(b *testing.B) {
	for _, depth := range []int{2, 3} {
		b.Run(vmName(depth), func(b *testing.B) {
			w, v, net := nestedOpStack(b, depth)
			ops := steadyOps(w, v, net)
			for _, op := range ops {
				if _, err := w.Execute(v, op); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Execute(v, ops[i%len(ops)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
