package experiment

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestStageBreakdownSumsToTable3 pins the breakdown to the table it
// decomposes: for every (benchmark, config) cell, the stage columns sum to
// exactly the Table 3 value. Deterministic costs make the per-iteration
// averages exact, so this is equality, not tolerance.
func TestStageBreakdownSumsToTable3(t *testing.T) {
	rows, err := StageBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]map[string]sim.Cycles{}
	for _, r := range t3 {
		cells[r.Name] = map[string]sim.Cycles{
			"VM": r.VM, "nested VM": r.Nested, "nested+DVH": r.NestedD,
			"L3 VM": r.L3, "L3+DVH": r.L3D,
		}
	}
	if len(rows) != len(t3)*len(table3Configs) {
		t.Fatalf("breakdown has %d rows, want %d", len(rows), len(t3)*len(table3Configs))
	}
	for _, r := range rows {
		var sum sim.Cycles
		for s := 0; s < trace.NumStages; s++ {
			sum += r.Stages[s]
		}
		if sum != r.Total {
			t.Errorf("%s/%s: stages sum to %v, row total is %v", r.Micro, r.Config, sum, r.Total)
		}
		if want := cells[r.Micro][r.Config]; r.Total != want {
			t.Errorf("%s/%s: breakdown total %v, Table 3 reports %v", r.Micro, r.Config, r.Total, want)
		}
	}
}

// TestStageBreakdownWidthIdentity is the pool-determinism contract for the
// new figure: the rendered breakdown is byte-identical at widths 1, 4 and 8.
func TestStageBreakdownWidthIdentity(t *testing.T) {
	render := textOf(t, "stages")
	sequential := runWidth(t, 1, render)
	for _, width := range []int{4, 8} {
		if got := runWidth(t, width, render); got != sequential {
			t.Errorf("width %d diverges from sequential:\n--- width %d ---\n%s\n--- sequential ---\n%s",
				width, width, got, sequential)
		}
	}
}

// TestMergedStageStats checks that folding the per-cell stats preserves the
// grand totals and transaction counts.
func TestMergedStageStats(t *testing.T) {
	rows, err := StageBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	merged := MergedStageStats(rows)
	var wantCycles sim.Cycles
	var wantTxns uint64
	for _, r := range rows {
		wantCycles += r.Stats.TotalCycles()
		wantTxns += r.Stats.TotalSettled()
	}
	if merged.TotalCycles() != wantCycles {
		t.Errorf("merged cycles %v, want %v", merged.TotalCycles(), wantCycles)
	}
	if merged.TotalSettled() != wantTxns {
		t.Errorf("merged transactions %d, want %d", merged.TotalSettled(), wantTxns)
	}
}
