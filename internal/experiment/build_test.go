package experiment

import (
	"fmt"
	"runtime"
	"testing"
)

// buildSpecs are representative stacks: the shallowest, the paper's nested
// DVH configuration, and the deepest paravirtual cascade.
var buildSpecs = []Spec{
	{Depth: 1, IO: IOParavirt},
	{Depth: 2, IO: IODVH},
	{Depth: 4, IO: IOParavirt},
}

// BenchmarkBuild measures stack construction, the dominant host cost of
// every cell a figure, test or fuzz input runs.
func BenchmarkBuild(b *testing.B) {
	for _, spec := range buildSpecs {
		b.Run(fmt.Sprintf("L%d-%v", spec.Depth, spec.IO), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocBudget pins Build's host allocation to what the stack
// touches, not the modeled machine's nominal capacity: a 96 GiB host, a
// 480 GiB SSD and up to 48 GiB of guest RAM per stack must not cost their
// dirty and written bitmaps up front. Bytes allocated are deterministic for
// a given spec, so the budget holds on any host.
func TestBuildAllocBudget(t *testing.T) {
	const budget = 1 << 20 // bytes per Build
	for _, spec := range buildSpecs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Build(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("Build(L%d %v) allocated %d bytes, budget %d", spec.Depth, spec.IO, got, budget)
		}
	}
}
