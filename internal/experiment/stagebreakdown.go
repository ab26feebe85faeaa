package experiment

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/hyper"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// StageBreakdownRow splits one Table 3 cell — a microbenchmark's average
// cycles under one configuration — across the pipeline stages that accrued
// them: the answer to "where do the L3 hypercall's 951k cycles go — route,
// forward, or deliver?". Stage cycles sum exactly to the Table 3 value
// (costs are deterministic, so per-iteration averages are exact), which the
// breakdown tests assert cell by cell.
type StageBreakdownRow struct {
	Micro  string
	Config string
	// Total is the Table 3 value: average cycles per operation.
	Total sim.Cycles
	// Stages holds the per-stage share of Total, indexed by hyper.Stage.
	Stages [hyper.NumStages]sim.Cycles
}

// StageBreakdown projects the per-stage cycle attribution of every Table 3
// cell: each cell's record holds a StageStats attached around exactly the
// measured operations. Rows are byte-identical at any -parallel width, and
// identical whether forwarded exits replay compiled plans or run the live
// recursion (both charge the same StageForward lump).
func StageBreakdown() ([]StageBreakdownRow, error) {
	return StageBreakdownUnder("")
}

// StageBreakdownUnder is StageBreakdown with every cell built under the named
// calibration profile ("" selects the harness default) — the unit of the
// -stages sweep, which re-derives the attribution on each registered testbed.
func StageBreakdownUnder(profileName string) ([]StageBreakdownRow, error) {
	configs := slices.Clone(table3Configs)
	for i := range configs {
		configs[i].spec.Profile = profileName
	}
	micros := workload.Micros()
	recs, err := cellsOf(configs, micros, record)
	if err != nil {
		return nil, err
	}
	// Records come config-major; the table groups rows by microbenchmark.
	var rows []StageBreakdownRow
	for mi, m := range micros {
		for c, cfg := range configs {
			rec := recs[c*len(micros)+mi]
			row := StageBreakdownRow{Micro: m.String(), Config: cfg.label, Total: rec.avg}
			for s := range row.Stages {
				// Deterministic costs make every iteration identical, so the
				// division is exact and the stage shares sum back to Total.
				row.Stages[s] = rec.stages.StageTotal(hyper.Stage(s)) / microIters
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatStageBreakdown renders the stacked per-stage table, grouped by
// microbenchmark like the paper groups Table 3 rows.
func FormatStageBreakdown(rows []StageBreakdownRow) string {
	return textStages("Per-stage cycle attribution of Table 3 (cycles/op; stages sum to the Table 3 value)",
		"benchmark", [3]int{14, 12, 10}, false, len(rows), breakdownRow(rows))
}

// markdownStageBreakdown renders the per-stage table as Markdown.
func markdownStageBreakdown(rows []StageBreakdownRow) string {
	return markdownStages("Benchmark", len(rows), breakdownRow(rows),
		"Cycles per operation attributed to each pipeline stage; stage columns sum to the total.")
}

// breakdownRow reads the per-stage table's rows.
func breakdownRow(rows []StageBreakdownRow) stageRow {
	return func(i int) (string, string, sim.Cycles, *[hyper.NumStages]sim.Cycles) {
		return rows[i].Micro, rows[i].Config, rows[i].Total, &rows[i].Stages
	}
}

// stageRow reads row i of a stage table: its two labels, its total and the
// total's per-stage shares.
type stageRow func(i int) (label, config string, total sim.Cycles, stages *[hyper.NumStages]sim.Cycles)

// textStages renders a stage table as aligned text: the title, the column
// heads, then the rows as markdownStages lays them out, in columns w wide
// (label, config, total), with a blank line between groups: rows with the
// same config when byConfig is set, with the same label otherwise.
func textStages(title, head string, w [3]int, byConfig bool, n int, row stageRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-*s %-*s %*s", title, w[0], head, w[1], "config", w[2], "total")
	for s := range hyper.NumStages {
		fmt.Fprintf(&b, " %10s", s)
	}
	b.WriteByte('\n')
	prev := ""
	for i := range n {
		label, config, total, stages := row(i)
		group := label
		if byConfig {
			group = config
		}
		if i > 0 && group != prev {
			b.WriteByte('\n')
		}
		prev = group
		fmt.Fprintf(&b, "%-*s %-*s %*d", w[0], label, w[1], config, w[2], uint64(total))
		for _, c := range stages {
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

// markdownStages renders a stage table as Markdown: a row per cell with its
// two labels, its total and the total's per-stage shares ("-" for a stage
// that accrued nothing), then a note.
func markdownStages(head string, n int, row stageRow, note string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| %s | Config | total |", head)
	for s := range hyper.NumStages {
		fmt.Fprintf(&b, " %s |", s)
	}
	fmt.Fprintf(&b, "\n|---|---|---|%s\n", strings.Repeat("---|", int(hyper.NumStages)))
	for i := 0; i < n; i++ {
		label, config, total, stages := row(i)
		fmt.Fprintf(&b, "| %s | %s | %d |", label, config, uint64(total))
		for _, c := range stages {
			if c != 0 {
				fmt.Fprintf(&b, " %d |", uint64(c))
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\n%s\n", note)
	return b.String()
}

// profileStages is the Table 3 stage attribution under one calibration
// profile.
type profileStages struct {
	profile profile.Profile
	rows    []StageBreakdownRow
}

// stagesSweep re-derives the Table 3 stage attribution under every
// registered calibration profile, in profile.All's sorted order.
func stagesSweep() ([]profileStages, error) {
	var sweep []profileStages
	for _, p := range profile.All() {
		rows, err := StageBreakdownUnder(p.Name)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Name, err)
		}
		sweep = append(sweep, profileStages{p, rows})
	}
	return sweep, nil
}

// formatStagesSweep renders one stage table per profile. The default
// profile's block is byte-identical to the stages entry's text.
func formatStagesSweep(sweep []profileStages) string {
	var b strings.Builder
	for i, s := range sweep {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "profile %s — %s\n", s.profile.Name, s.profile.Description)
		b.WriteString(FormatStageBreakdown(s.rows))
	}
	return b.String()
}
