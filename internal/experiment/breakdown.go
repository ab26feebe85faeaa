package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/workload"
)

// BreakdownRow attributes one workload's per-transaction virtualization
// cycles to the mechanism that spent them under one configuration — the
// causal view behind Figure 8: each DVH technique removes one column's
// cycles.
type BreakdownRow struct {
	Workload string
	Config   string
	// PerTxn maps op class ("kick", "rx", "timer", "ipi", "idle", "eoi",
	// "blk") to average cycles per transaction.
	PerTxn map[string]float64
	// WorkCycles is the native compute per transaction, for scale.
	WorkCycles float64
}

// Breakdown measures where the cycles go for every workload under the
// nested paravirtual baseline, DVH-VP, and full DVH — three of Figure 7's
// cells, projected onto per-transaction cycles by op class.
func Breakdown() ([]BreakdownRow, error) {
	configs := []appConfig{
		{"Nested VM", Spec{Depth: 2, IO: IOParavirt}},
		{"Nested VM+DVH-VP", Spec{Depth: 2, IO: IODVHVP}},
		{"Nested VM+DVH", Spec{Depth: 2, IO: IODVH}},
	}
	return cellsOf(configs, workload.Profiles(), func(label string, rec *cellRecord) BreakdownRow {
		res := &rec.result
		row := BreakdownRow{
			Workload:   res.Profile.Name,
			Config:     label,
			PerTxn:     make(map[string]float64, len(res.Breakdown)),
			WorkCycles: float64(res.Profile.WorkCycles),
		}
		keys := make([]string, 0, len(res.Breakdown))
		for k := range res.Breakdown {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			row.PerTxn[k] = float64(res.Breakdown[k]) / float64(res.Transactions)
		}
		return row
	})
}

// breakdownOps fixes the column order of the report.
var breakdownOps = []string{"kick", "rx", "blk", "timer", "ipi", "idle", "eoi"}

// FormatBreakdown renders the attribution as cycles-per-transaction columns.
func FormatBreakdown(rows []BreakdownRow) string {
	var b strings.Builder
	b.WriteString("Virtualization cycles per transaction by mechanism\n")
	byWorkload := map[string][]BreakdownRow{}
	var order []string
	for _, r := range rows {
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, w := range order {
		fmt.Fprintf(&b, "%s (native work %v cycles/txn)\n", w, byWorkload[w][0].WorkCycles)
		fmt.Fprintf(&b, "  %-20s", "")
		for _, op := range breakdownOps {
			fmt.Fprintf(&b, " %10s", op)
		}
		b.WriteByte('\n')
		for _, r := range byWorkload[w] {
			fmt.Fprintf(&b, "  %-20s", r.Config)
			for _, op := range breakdownOps {
				if v, ok := r.PerTxn[op]; ok && v > 0 {
					fmt.Fprintf(&b, " %10.0f", v)
				} else {
					fmt.Fprintf(&b, " %10s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
