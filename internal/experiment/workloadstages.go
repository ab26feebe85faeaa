package experiment

import (
	"fmt"
	"strings"

	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/workload"
)

// WorkloadStageRow attributes one Figure 7 (workload, config) cell's
// virtualization cycles to the pipeline stages that accrued them — the
// per-workload counterpart of the per-microbenchmark StageBreakdown, and the
// view that makes delivery-stage savings visible per application mix rather
// than per boundary. Guest compute is charged outside transactions, so the
// stage totals decompose the run's virtualization cycles only.
type WorkloadStageRow struct {
	Workload string
	Config   string
	// Total is the run's virtualization cycles: the sum of the stage shares.
	Total sim.Cycles
	// Stages holds the per-stage share of Total, indexed by hyper.Stage.
	Stages [hyper.NumStages]sim.Cycles
}

// WorkloadStageBreakdown projects the per-stage attribution every
// application cell records (the StageStats attached for the whole run) over the Figure 7 configurations — the same cells as Figure 7. Rows
// return in cell order, byte-identical at any width and across plan-cache
// modes.
func WorkloadStageBreakdown() ([]WorkloadStageRow, error) {
	return cellsOf(figure7Configs, workload.Profiles(), func(label string, rec *cellRecord) WorkloadStageRow {
		row := WorkloadStageRow{Workload: rec.result.Profile.Name, Config: label}
		for s := range row.Stages {
			row.Stages[s] = rec.stages.StageTotal(hyper.Stage(s))
			row.Total += row.Stages[s]
		}
		return row
	})
}

// FormatWorkloadStageBreakdown renders the per-workload stage profiles,
// grouped by configuration — rows arrive config-major, workload fastest,
// like the figures order their bars.
func FormatWorkloadStageBreakdown(rows []WorkloadStageRow) string {
	var b strings.Builder
	b.WriteString("Per-workload stage attribution over the Figure 7 mixes (virtualization cycles per run)\n")
	fmt.Fprintf(&b, "%-16s %-22s %12s", "workload", "config", "total")
	for s := range hyper.NumStages {
		fmt.Fprintf(&b, " %10s", s)
	}
	b.WriteByte('\n')
	group := ""
	for _, r := range rows {
		if group != "" && r.Config != group {
			b.WriteByte('\n')
		}
		group = r.Config
		fmt.Fprintf(&b, "%-16s %-22s %12d", r.Workload, r.Config, uint64(r.Total))
		for _, c := range r.Stages {
			if c != 0 {
				fmt.Fprintf(&b, " %10d", uint64(c))
			} else {
				fmt.Fprintf(&b, " %10s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// markdownWorkloadStages renders the per-workload stage profiles as
// Markdown.
func markdownWorkloadStages(rows []WorkloadStageRow) string {
	return markdownStages("Workload", len(rows), func(i int) (string, string, sim.Cycles, *[hyper.NumStages]sim.Cycles) {
		return rows[i].Workload, rows[i].Config, rows[i].Total, &rows[i].Stages
	}, "Virtualization cycles per run attributed to each pipeline stage; guest compute excluded.")
}
