package experiment

import (
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
	return textStages("Per-workload stage attribution over the Figure 7 mixes (virtualization cycles per run)",
		"workload", [3]int{16, 22, 12}, true, len(rows), workloadStageRow(rows))
}

// markdownWorkloadStages renders the per-workload stage profiles as
// Markdown.
func markdownWorkloadStages(rows []WorkloadStageRow) string {
	return markdownStages("Workload", len(rows), workloadStageRow(rows),
		"Virtualization cycles per run attributed to each pipeline stage; guest compute excluded.")
}

// workloadStageRow reads the per-workload stage profiles' rows.
func workloadStageRow(rows []WorkloadStageRow) stageRow {
	return func(i int) (string, string, sim.Cycles, *[hyper.NumStages]sim.Cycles) {
		return rows[i].Workload, rows[i].Config, rows[i].Total, &rows[i].Stages
	}
}
