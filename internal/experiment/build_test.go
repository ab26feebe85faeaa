package experiment

import (
	"fmt"
	"runtime"
	"testing"
)

// buildSpecs are representative stacks — the shallowest, the paper's nested
// DVH configuration, and the deepest paravirtual cascade — each with the
// bytes and the heap objects one Build of it may allocate.
//
// The byte budgets sit 31-55% above the measured 10,544 / 25,032 /
// 28,048 B (10,560 / 25,128 / 28,112 B under -race). The L2 DVH budget
// fails page-table directory nodes and bitmap chunks that are 4 KiB from
// their first entry (47,336 B), where a small node or chunk is 96 bytes
// until it fills, and page-table nodes that each hold 512 24-byte entries
// (83,752 B); all three fail map-backed VMCSes and a 256-entry
// interrupt-remapping table allocated up front (25,242 / 112,412 /
// 67,254 B).
//
// The object budgets are half of what Build made when every vCPU, LAPIC,
// posted-interrupt descriptor, VMCS, pCPU, PCI config space and virtio
// queue table was its own allocation and slices grew by append (103 / 204
// / 313). Build makes 42 / 96 / 102 (42 / 98 / 102 under -race) with each
// VM's vCPUs, the machine's pCPUs, and each VM, PCI function, MSI-X table
// and virtio device allocated as one block.
var buildSpecs = []struct {
	Spec
	budget  uint64
	objects uint64
}{
	{Spec{Depth: 1, IO: IOParavirt}, 16 << 10, 51},
	{Spec{Depth: 2, IO: IODVH}, 32 << 10, 102},
	{Spec{Depth: 4, IO: IOParavirt}, 40 << 10, 156},
}

// BenchmarkBuild measures stack construction, the dominant host cost of
// every cell a figure, test or fuzz input runs.
func BenchmarkBuild(b *testing.B) {
	for _, bs := range buildSpecs {
		b.Run(fmt.Sprintf("L%d-%v", bs.Depth, bs.IO), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(bs.Spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMigration runs the Section 4 migration entry, the largest single
// share of `nvbench -all`: four pairs of Builds, pre-copy migrations and
// VerifyDest. The pool has width 1, so ns and bytes are what one host
// thread spends on all four.
func BenchmarkMigration(b *testing.B) {
	prev := int(parallelism.Load())
	SetParallelism(1)
	defer SetParallelism(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Migration(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildAllocBudget pins Build's host allocation to what the stack
// touches, not the modeled machine's nominal capacity: a 96 GiB host, a
// 480 GiB SSD and up to 48 GiB of guest RAM per stack must not cost their
// dirty and written bitmaps up front, nor a VMCS or remapping table more
// than its fields and programmed entries. It also holds Build to allocating
// per structure, not per field. Bytes and objects allocated are
// deterministic for a given spec, so each budget holds on any host. Each
// spec is built once unmeasured first: the first Build in a process also
// pays one-time costs, such as the runtime's copy of the environment on the
// first os.Getenv, whose size depends on the host.
func TestBuildAllocBudget(t *testing.T) {
	// One P, as testing.AllocsPerRun uses: with two, the runtime may start
	// a thread inside a measured window, about 5 KB of heap of its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, bs := range buildSpecs {
		if _, err := Build(bs.Spec); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Build(bs.Spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if bytes > bs.budget {
			t.Errorf("Build(L%d %v) allocated %d bytes, budget %d", bs.Depth, bs.IO, bytes, bs.budget)
		}
		if objects > bs.objects {
			t.Errorf("Build(L%d %v) allocated %d objects, budget %d", bs.Depth, bs.IO, objects, bs.objects)
		}
		t.Logf("Build(L%d %v) allocated %d bytes in %d objects, budgets %d and %d", bs.Depth, bs.IO, bytes, objects, bs.budget, bs.objects)
	}
}

// TestMigrationAllocBudget pins migration's host allocation to the bytes the
// churn writes rather than to whole frames: each Section 4 configuration —
// both builds, the migration and VerifyDest — must stay within 72 B per
// working-set page, though every page sent is charged 4 KiB of modeled
// transfer. The first pass and every pre-copy round copy their page sets in
// runs read straight from the written set and the dirty bitmaps, VerifyDest
// reads the written set the same way, and page-table directory nodes and
// bitmap chunks start small: the configurations read 43-71 B, under -race
// too. The budget fails a fresh page list per pre-copy round (44-73 B, 45-75
// B under -race), a heap object per written page with 12 KiB page-table
// nodes (158-264 B), and a zeroed 4 KiB frame per page on both machines
// (over 8 KiB). Bytes allocated are deterministic for a given configuration
// to within half a byte per page (the DVH configuration reads 71.0-71.5 B),
// so the budget holds on any host.
func TestMigrationAllocBudget(t *testing.T) {
	// One P, as testing.AllocsPerRun uses: with two, the runtime may start
	// a thread inside a measured window, about 5 KB of heap of its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const budget = 72 // bytes per working-set page
	for _, c := range migrationCells {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := c.plan()
		if err != nil {
			t.Fatal(err)
		}
		row, err := runMigration(c.label, plan)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !row.Correct {
			t.Fatalf("%s: destination differs from the source", c.label)
		}
		ws := uint64(plan.Churn.WorkingSetPages)
		if got := (after.TotalAlloc - before.TotalAlloc) / ws; got > budget {
			t.Errorf("%s: allocated %d bytes per working-set page (%d pages), budget %d", c.label, got, ws, budget)
		} else {
			t.Logf("%s: %d bytes per working-set page (%d pages)", c.label, got, ws)
		}
	}
}
