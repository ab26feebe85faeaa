package hyper

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/vmx"
)

// BenchmarkExecute measures the simulator's own (host wall-clock) speed for
// the hot Execute path at each depth — the cost of running the model, not
// the modeled cost. Depths 2 and 3 run in both plan modes: "replayed" is the
// default steady-state plan replay, "uncached" re-runs the live
// recursion every exit (NVSIM_NOPLANCACHE behavior). Depth 1 never forwards,
// so it has no mode split.
func BenchmarkExecute(b *testing.B) {
	for _, depth := range []int{1, 2, 3} {
		run := func(name string, cache bool) {
			b.Run(name, func(b *testing.B) {
				w, vms := testStack(b, depth)
				w.SetPlanCache(cache)
				v := vms[depth-1].VCPUs[0]
				// Warm the stack cache (and plan table when caching) so the
				// loop measures steady state, not first-exit compilation.
				if _, err := w.Execute(v, Hypercall()); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Execute(v, Hypercall()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if depth == 1 {
			run(vmName(depth), true)
			continue
		}
		run(vmName(depth)+"-replayed", true)
		run(vmName(depth)+"-uncached", false)
	}
}

// BenchmarkCompilePlan measures one cold compile of the forwarded-hypercall
// plan at each depth: host time and bytes per compile. Only untraced worlds
// compile plans; a World with a Tracer walks live.
func BenchmarkCompilePlan(b *testing.B) {
	for _, depth := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("L%d", depth), func(b *testing.B) {
			w, stack := forwardCompileStack(b, depth, vmx.HardwareCaps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.compilePlan(stack, planForward, vmx.ExitVMCALL, depth-1)
			}
		})
	}
}

func BenchmarkGuestMemoryWrite(b *testing.B) {
	_, vms := testStack(b, 2)
	gm := vms[1].Memory()
	buf := make([]byte, 4096)
	addr := vms[1].MustAllocPages(256)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gm.Write(addr+mem.Addr((i&0xff)*mem.PageSize), buf); err != nil {
			b.Fatal(err)
		}
	}
}
