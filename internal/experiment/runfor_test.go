package experiment

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// runForGolden sits outside testdata/golden, whose files TestGoldenMatrix
// reads as registry entries.
const runForGolden = "testdata/runfor.golden"

// TestRunForGolden pins what the event timeline fires. Each cell builds a
// fresh stack, runs a jittered Run(500), which arms timers without advancing
// the clock, and then RunFor(400 × WorkCycles), which advances the clock
// through those deadlines and the ones it arms itself. Both Results and the
// machine's Stats afterwards are rendered, so a timer event that fires late,
// twice, or delivers after its LAPIC reports it disarmed moves this golden
// even where no cycle total of a Run-only cell moves. Every cell runs twice,
// on a stack replaying compiled plans and on one walking every charge tree
// live, and both renderings must match the one golden: the timeline's
// delivery path is cache ≡ live. NVSIM_UPDATE_GOLDEN=1 rewrites the golden
// from the cached rendering, only ever for a deliberate change to the
// timeline.
func TestRunForGolden(t *testing.T) {
	specs := []struct {
		label string
		spec  Spec
	}{
		{"L1 paravirt", Spec{Depth: 1, IO: IOParavirt}},
		{"L2 paravirt", Spec{Depth: 2, IO: IOParavirt}},
		{"L2 dvh", Spec{Depth: 2, IO: IODVH}},
		{"L2 dvh-vp", Spec{Depth: 2, IO: IODVHVP}},
		{"L3 dvh", Spec{Depth: 3, IO: IODVH}},
		{"L2 passthrough xen", Spec{Depth: 2, IO: IOPassthrough, Guest: GuestXen}},
	}
	render := func(cache bool) string {
		var b strings.Builder
		for _, s := range specs {
			for _, p := range workload.Profiles() {
				st, err := Build(s.spec)
				if err != nil {
					t.Fatal(err)
				}
				st.World.SetPlanCache(cache)
				r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p, RNG: sim.NewRNG(7)}
				fmt.Fprintf(&b, "== %s at %s\n", p.Name, s.label)
				res, err := r.Run(500)
				if err != nil {
					t.Fatalf("plan cache %v: %s at %s: Run: %v", cache, p.Name, s.label, err)
				}
				writeResult(&b, "Run(500)", res)
				span := 400 * p.WorkCycles
				res, err = r.RunFor(span)
				if err != nil {
					t.Fatalf("plan cache %v: %s at %s: RunFor: %v", cache, p.Name, s.label, err)
				}
				writeResult(&b, fmt.Sprintf("RunFor(%d)", uint64(span)), res)
				b.WriteString(st.Machine.Stats.String())
			}
		}
		return b.String()
	}
	cached := render(true)
	checkGolden(t, filepath.FromSlash(runForGolden), cached)
	if live := render(false); live != cached {
		t.Errorf("plan cache off: Run→RunFor output differs from the cached rendering\n got:\n%s\nwant:\n%s", live, cached)
	}
}

// writeResult renders a Result's totals, latency quantiles and op-class
// breakdown in sorted class order.
func writeResult(b *strings.Builder, label string, res workload.Result) {
	fmt.Fprintf(b, "%s: txns=%d cycles=%d p50<=%d p99<=%d max=%d\n", label, res.Transactions,
		uint64(res.TotalCycles), uint64(res.Latency.Quantile(0.50)), uint64(res.Latency.Quantile(0.99)),
		uint64(res.Latency.Max()))
	classes := make([]string, 0, len(res.Breakdown))
	for c := range res.Breakdown {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		fmt.Fprintf(b, "  %s=%d\n", c, uint64(res.Breakdown[c]))
	}
}
