package experiment

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// microIters and appTxns size the measurement runs. Costs are deterministic,
// so small iteration counts already give exact averages; app runs use enough
// transactions for the fractional access rates to converge.
const (
	microIters = 16
	appTxns    = 1200
)

// Table3Row is one microbenchmark row of Table 3, in CPU cycles.
type Table3Row struct {
	Name    string
	VM      sim.Cycles
	Nested  sim.Cycles
	NestedD sim.Cycles // nested + DVH
	L3      sim.Cycles
	L3D     sim.Cycles // L3 + DVH
}

// Table3 reproduces the paper's Table 3: microbenchmark cost in cycles for
// VM, nested VM, nested VM + DVH, L3 VM, and L3 VM + DVH. Each (spec, micro)
// cell builds its own isolated stack, so cells fan out across the worker
// pool; costs are deterministic, so the result is identical at any width.
func Table3() ([]Table3Row, error) {
	specs := []Spec{
		{Depth: 1, IO: IOParavirt},
		{Depth: 2, IO: IOParavirt},
		{Depth: 2, IO: IODVH},
		{Depth: 3, IO: IOParavirt},
		{Depth: 3, IO: IODVH},
	}
	micros := workload.Micros()
	costs, err := mapCells(len(specs)*len(micros), func(i int) (sim.Cycles, error) {
		spec, m := specs[i/len(micros)], micros[i%len(micros)]
		st, err := Build(spec)
		if err != nil {
			return 0, err
		}
		c, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, microIters)
		if err != nil {
			return 0, fmt.Errorf("table3 %v on %+v: %w", m, spec, err)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for mi, m := range micros {
		rows = append(rows, Table3Row{
			Name:    m.String(),
			VM:      costs[0*len(micros)+mi],
			Nested:  costs[1*len(micros)+mi],
			NestedD: costs[2*len(micros)+mi],
			L3:      costs[3*len(micros)+mi],
			L3D:     costs[4*len(micros)+mi],
		})
	}
	return rows, nil
}

// FormatTable3 renders Table 3 the way the paper prints it.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s %14s %12s %12s\n",
		"", "VM", "nested VM", "nested+DVH", "L3 VM", "L3+DVH")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12v %12v %14v %12v %12v\n",
			r.Name, r.VM, r.Nested, r.NestedD, r.L3, r.L3D)
	}
	return b.String()
}

// AppResult is one bar of an application figure.
type AppResult struct {
	Workload string
	Config   string
	Overhead float64 // relative to native; 1.0 = native speed
	Score    float64 // projected metric in the workload's unit
	Unit     string
}

// appResult projects a cell record onto one figure bar.
func appResult(label string, rec *cellRecord) AppResult {
	p := rec.result.Profile
	return AppResult{
		Workload: p.Name,
		Config:   label,
		Overhead: rec.result.Overhead,
		Score:    rec.result.Score,
		Unit:     p.Unit,
	}
}

// appFigure measures every Table 2 workload on each configuration.
func appFigure(configs []appConfig) ([]AppResult, error) {
	return appCells(configs, workload.Profiles(), appResult)
}

// Figure7 reproduces application overhead at up to two virtualization
// levels across the six I/O configurations of the paper's Figure 7.
func Figure7() ([]AppResult, error) {
	return appFigure(figure7Configs)
}

// figure7Configs are Figure 7's six bars, shared with the per-workload stage
// breakdown so both views describe the same configurations (and cells).
var figure7Configs = []appConfig{
	{"VM", Spec{Depth: 1, IO: IOParavirt}},
	{"VM+passthrough", Spec{Depth: 1, IO: IOPassthrough}},
	{"Nested VM", Spec{Depth: 2, IO: IOParavirt}},
	{"Nested VM+passthrough", Spec{Depth: 2, IO: IOPassthrough}},
	{"Nested VM+DVH-VP", Spec{Depth: 2, IO: IODVHVP}},
	{"Nested VM+DVH", Spec{Depth: 2, IO: IODVH}},
}

// Figure8 reproduces the DVH technique breakdown: starting from DVH-VP,
// each bar adds one mechanism, ending at full DVH.
func Figure8() ([]AppResult, error) {
	vp := core.FeatureVirtualPassthrough
	return appFigure([]appConfig{
		{"Nested VM", Spec{Depth: 2, IO: IOParavirt}},
		{"Nested VM+DVH-VP", Spec{Depth: 2, IO: IODVHVP, Features: vp}},
		{"+posted interrupts", Spec{Depth: 2, IO: IODVHVP, Features: vp | core.FeatureVIOMMUPostedInterrupts}},
		{"+virtual IPIs", Spec{Depth: 2, IO: IODVH, Features: vp | core.FeatureVIOMMUPostedInterrupts | core.FeatureVirtualIPIs}},
		{"+virtual timers", Spec{Depth: 2, IO: IODVH, Features: vp | core.FeatureVIOMMUPostedInterrupts | core.FeatureVirtualIPIs | core.FeatureVirtualTimers}},
		{"+virtual idle (= DVH)", Spec{Depth: 2, IO: IODVH, Features: core.FeaturesAll}},
	})
}

// Figure9 reproduces application overhead at three virtualization levels.
func Figure9() ([]AppResult, error) {
	return appFigure([]appConfig{
		{"VM", Spec{Depth: 1, IO: IOParavirt}},
		{"VM+passthrough", Spec{Depth: 1, IO: IOPassthrough}},
		{"L3", Spec{Depth: 3, IO: IOParavirt}},
		{"L3+passthrough", Spec{Depth: 3, IO: IOPassthrough}},
		{"L3+DVH-VP", Spec{Depth: 3, IO: IODVHVP}},
		{"L3+DVH", Spec{Depth: 3, IO: IODVH}},
	})
}

// Figure10 reproduces the Xen-on-KVM experiment: Xen as the guest
// hypervisor, DVH-VP used without any Xen modification.
func Figure10() ([]AppResult, error) {
	return appFigure([]appConfig{
		{"VM", Spec{Depth: 1, IO: IOParavirt}},
		{"VM+passthrough", Spec{Depth: 1, IO: IOPassthrough}},
		{"Nested VM (Xen)", Spec{Depth: 2, IO: IOParavirt, Guest: GuestXen}},
		{"Nested VM (Xen)+passthrough", Spec{Depth: 2, IO: IOPassthrough, Guest: GuestXen}},
		{"Nested VM (Xen)+DVH-VP", Spec{Depth: 2, IO: IODVHVP, Guest: GuestXen}},
	})
}

// FormatAppResults renders a figure's results as a workload x config matrix
// of overheads, the shape the paper's bar charts plot.
func FormatAppResults(title string, results []AppResult) string {
	var configs []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Config] {
			seen[r.Config] = true
			configs = append(configs, r.Config)
		}
	}
	byKey := map[string]AppResult{}
	for _, r := range results {
		byKey[r.Workload+"|"+r.Config] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (overhead vs native; 1.0 = native speed)\n", title)
	fmt.Fprintf(&b, "%-16s", "")
	for _, c := range configs {
		fmt.Fprintf(&b, " %22s", c)
	}
	b.WriteByte('\n')
	for _, p := range workload.Profiles() {
		fmt.Fprintf(&b, "%-16s", p.Name)
		for _, c := range configs {
			r, ok := byKey[p.Name+"|"+c]
			if !ok {
				fmt.Fprintf(&b, " %22s", "-")
				continue
			}
			fmt.Fprintf(&b, " %22.2f", r.Overhead)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// OverheadOf extracts one bar from a result set.
func OverheadOf(results []AppResult, workloadName, config string) (float64, bool) {
	for _, r := range results {
		if r.Workload == workloadName && r.Config == config {
			return r.Overhead, true
		}
	}
	return 0, false
}
