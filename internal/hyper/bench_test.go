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
				// Warm the plan table (when caching) so the loop measures
				// steady state, not first-exit compilation.
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

// BenchmarkCompilePlan measures a compile of the forwarded-hypercall plan
// at each depth, on the World's compile scratch, which every compile after
// the first reuses: host time, bytes and allocations per compile. Only
// untraced worlds compile plans; a World with a Tracer walks live.
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

// BenchmarkGuestMemoryFirstTouch measures the first write into an
// untouched region of a depth-2 VM, the way a guest hypervisor first writes
// its VCIMT: one quadword at the L2 VM's last frame, which faults in both
// EPT levels and the host frame and marks three written sets. It reports
// the bytes and allocations of that one write, the metadata a region costs
// to touch. Fresh stacks are built in batches outside the timed part.
func BenchmarkGuestMemoryFirstTouch(b *testing.B) {
	const batch = 64
	var mems [batch]*GuestMemory
	var last mem.Addr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			for k := range mems {
				_, vms := testStack(b, 2)
				mems[k], last = vms[1].Memory(), (vms[1].NumPages - 1).Base()
			}
			b.StartTimer()
		}
		if err := mems[i%batch].WriteU64(last, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuestMemoryPages measures the page path migration takes, in host
// ns per page, over an 8,192-page working set of the L2 VM of a 2-level
// stack: "touch" writes the first quadword of every page of fresh memory
// (WritePageQuads, faulting in both EPT levels and the host frames), "copy"
// copies them onto a fresh destination stack (CopyPagesTo over the written
// set, a migration's first pass), and "verify" compares the two
// (DiffWritten). Stacks are built outside the timed part.
func BenchmarkGuestMemoryPages(b *testing.B) {
	const ws = 8192
	val := func(i int) uint64 { return uint64(i) + 1 }
	touched := func() *GuestMemory {
		_, vms := testStack(b, 2)
		g := vms[1].Memory()
		if err := g.WritePageQuads(0, ws, val); err != nil {
			b.Fatal(err)
		}
		return g
	}
	fresh := func() *GuestMemory {
		_, vms := testStack(b, 2)
		return vms[1].Memory()
	}
	perPage := func(b *testing.B, setup func() *GuestMemory, fn func(g *GuestMemory) error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := setup()
			b.StartTimer()
			if err := fn(g); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ws), "ns/page")
	}
	b.Run("touch", func(b *testing.B) {
		perPage(b, fresh, func(g *GuestMemory) error { return g.WritePageQuads(0, ws, val) })
	})
	src := touched()
	b.Run("copy", func(b *testing.B) {
		perPage(b, fresh, func(dst *GuestMemory) error { return src.CopyPagesTo(dst, src.vm.WrittenSet()) })
	})
	dst := fresh()
	if err := src.CopyPagesTo(dst, src.vm.WrittenSet()); err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		perPage(b, func() *GuestMemory { return dst }, func(dst *GuestMemory) error {
			diff, err := src.DiffWritten(dst)
			if err == nil && len(diff) != 0 {
				err = fmt.Errorf("copy differs on %d pages", len(diff))
			}
			return err
		})
	})
}
