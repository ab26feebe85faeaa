package experiment

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// microIters and appTxns size the measurement runs. Costs are deterministic,
// so small iteration counts already give exact averages; app runs use enough
// transactions for the fractional access rates to converge. An application
// cell's record is that of appTxns transactions, but with the plan cache on
// the cell simulates only a warm-up and a few periods and adds the rest
// exactly (Runner.RunPeriodic, DESIGN.md §17.1): 30 to 60 of the 1,200.
const (
	microIters = 16
	appTxns    = 1200
)

// Table3Row is one row in Table 3's layout: an operation's average cost in
// CPU cycles on each of the five Table 3 configurations.
type Table3Row struct {
	Name    string
	VM      sim.Cycles
	Nested  sim.Cycles
	NestedD sim.Cycles // nested + DVH
	L3      sim.Cycles
	L3D     sim.Cycles // L3 + DVH
}

// table3Configs are the Table 3 columns, labeled as the paper prints them.
var table3Configs = []appConfig{
	{"VM", Spec{Depth: 1, IO: IOParavirt}},
	{"nested VM", Spec{Depth: 2, IO: IOParavirt}},
	{"nested+DVH", Spec{Depth: 2, IO: IODVH}},
	{"L3 VM", Spec{Depth: 3, IO: IOParavirt}},
	{"L3+DVH", Spec{Depth: 3, IO: IODVH}},
}

// Table3 reproduces the paper's Table 3: microbenchmark cost in cycles for
// VM, nested VM, nested VM + DVH, L3 VM, and L3 VM + DVH.
func Table3() ([]Table3Row, error) { return table3Matrix(workload.Micros()) }

// table3Matrix projects the average cost of every op on each Table 3
// configuration, one row per op. Costs are deterministic, so the result is
// identical at any width and across plan-cache modes.
func table3Matrix[Op cellOp](ops []Op) ([]Table3Row, error) {
	recs, err := cellsOf(table3Configs, ops, record)
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(ops))
	for i, op := range ops {
		col := func(c int) sim.Cycles { return recs[c*len(ops)+i].avg }
		rows[i] = Table3Row{Name: runOf(op).String(), VM: col(0), Nested: col(1), NestedD: col(2), L3: col(3), L3D: col(4)}
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

// markdownTable3 renders Table 3 as a Markdown table.
func markdownTable3(rows []Table3Row) string { return markdownTable3Layout("Benchmark", rows) }

// markdownTable3Layout renders rows in Table 3's layout as a Markdown table,
// with first as the heading of the row-name column.
func markdownTable3Layout(first string, rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| %s | VM | nested VM | nested+DVH | L3 VM | L3+DVH |\n|---|---|---|---|---|---|\n", first)
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %v | %v | %v | %v | %v |\n", r.Name, r.VM, r.Nested, r.NestedD, r.L3, r.L3D)
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
	return cellsOf(configs, workload.Profiles(), appResult)
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

// figure is the render step of an application figure titled title: the
// workload x config overhead matrix as text or Markdown, or its bars as an
// ASCII chart or CSV.
func figure(title string, compute func() ([]AppResult, error)) func(Format) (string, error) {
	return func(f Format) (string, error) {
		res, err := compute()
		if err != nil {
			return "", err
		}
		bars := make([]report.Bar, 0, len(res))
		for _, r := range res {
			bars = append(bars, report.Bar{Group: r.Workload, Series: r.Config, Value: r.Overhead})
		}
		switch f {
		case Chart:
			out := report.BarChart(title+" (overhead vs native)", bars)
			return out + "\n" + report.FormatSummaries(report.Summarize(bars)), nil
		case CSV:
			return report.CSV(bars), nil
		case Markdown:
			return markdownAppResults(res), nil
		}
		return FormatAppResults(title, res), nil
	}
}

// appMatrix lays a figure's bars out as its matrix: the configurations in
// bar order, and each bar's overhead keyed by workload and configuration.
func appMatrix(results []AppResult) (configs []string, overhead map[[2]string]float64) {
	overhead = make(map[[2]string]float64, len(results))
	for _, r := range results {
		if !slices.Contains(configs, r.Config) {
			configs = append(configs, r.Config)
		}
		overhead[[2]string{r.Workload, r.Config}] = r.Overhead
	}
	return configs, overhead
}

// FormatAppResults renders a figure's results as a workload x config matrix
// of overheads, the shape the paper's bar charts plot.
func FormatAppResults(title string, results []AppResult) string {
	configs, overhead := appMatrix(results)
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
			v, ok := overhead[[2]string{p.Name, c}]
			if !ok {
				fmt.Fprintf(&b, " %22s", "-")
				continue
			}
			fmt.Fprintf(&b, " %22.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// markdownAppResults renders a figure's overhead matrix as a Markdown table.
func markdownAppResults(results []AppResult) string {
	configs, overhead := appMatrix(results)
	var b strings.Builder
	fmt.Fprintf(&b, "| Workload | %s |\n|---|%s\n", strings.Join(configs, " | "), strings.Repeat("---|", len(configs)))
	for _, p := range workload.Profiles() {
		b.WriteString("| " + p.Name)
		for _, c := range configs {
			if v, ok := overhead[[2]string{p.Name, c}]; ok {
				fmt.Fprintf(&b, " | %.2f", v)
			} else {
				b.WriteString(" | -")
			}
		}
		b.WriteString(" |\n")
	}
	b.WriteString("\nOverhead vs native execution; 1.0 = native speed.\n")
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
