package experiment

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestStageBreakdownSumsToTable3 pins the breakdown to the table it
// decomposes: for every (benchmark, config) cell, the stage columns sum to
// exactly the row total, and the total equals the microbenchmark measured on
// a fresh stack with no stage sink attached — so attaching the sink, which
// the Table 3 and stage entries' shared record always does, moves no cycle.
// Deterministic costs make the per-iteration averages exact, so this is
// equality, not tolerance.
func TestStageBreakdownSumsToTable3(t *testing.T) {
	rows, err := StageBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	micros := workload.Micros()
	if len(rows) != len(micros)*len(table3Configs) {
		t.Fatalf("breakdown has %d rows, want %d", len(rows), len(micros)*len(table3Configs))
	}
	for i, r := range rows {
		m, cfg := micros[i/len(table3Configs)], table3Configs[i%len(table3Configs)]
		if r.Micro != m.String() || r.Config != cfg.label {
			t.Fatalf("row %d is %s/%s, want %v/%s", i, r.Micro, r.Config, m, cfg.label)
		}
		var sum sim.Cycles
		for _, c := range r.Stages {
			sum += c
		}
		if sum != r.Total {
			t.Errorf("%s/%s: stages sum to %v, row total is %v", r.Micro, r.Config, sum, r.Total)
		}
		st, err := Build(cfg.spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, microIters)
		if err != nil {
			t.Fatal(err)
		}
		if r.Total != want {
			t.Errorf("%s/%s: breakdown total %v, unobserved run measures %v", r.Micro, r.Config, r.Total, want)
		}
	}
}

// TestStageBreakdownWidthIdentity is the pool-determinism contract for the
// breakdown: the rendered table is byte-identical at widths 1, 4 and 8, each
// run from an empty cell memo.
func TestStageBreakdownWidthIdentity(t *testing.T) {
	render := textOf(t, "stages")
	sequential, _ := runFresh(t, 1, render)
	for _, width := range []int{4, 8} {
		got, n := runFresh(t, width, render)
		if n == 0 {
			t.Errorf("width %d computed no cells; a memo hit would make the comparison vacuous", width)
		}
		if got != sequential {
			t.Errorf("width %d diverges from sequential:\n--- width %d ---\n%s\n--- sequential ---\n%s",
				width, width, got, sequential)
		}
	}
}
