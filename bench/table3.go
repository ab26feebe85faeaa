package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/experiment"
)

// table3Check recomputes Table 3, requires its rendering to appear in
// eval-all.golden, and returns the simulator's accuracy: the mean
// |model − paper| / paper, in percent, over the derived cells. Those are
// every column but VM, which is calibrated to the paper and so held out.
// Every workload reports it, so each host-speed number stands beside the
// accuracy of what the simulator computes.
func (r *runner) table3Check() (float64, error) {
	var paper map[string][5]float64
	if err := json.Unmarshal(r.raw.paperTable3, &paper); err != nil {
		return 0, fmt.Errorf("paper_table3.json: %w", err)
	}
	rows, err := experiment.Table3()
	if err != nil {
		return 0, err
	}
	if !bytes.Contains(r.raw.evalAll, []byte(experiment.FormatTable3(rows))) {
		return 0, fmt.Errorf("Table 3 differs from the one in eval-all.golden")
	}
	if len(rows) != len(paper) {
		return 0, fmt.Errorf("Table 3 has %d rows, paper_table3.json %d", len(rows), len(paper))
	}
	var total float64
	n := 0
	for _, row := range rows {
		p, ok := paper[row.Name]
		if !ok {
			return 0, fmt.Errorf("paper_table3.json has no row %q", row.Name)
		}
		model := [5]float64{float64(row.VM), float64(row.Nested), float64(row.NestedD), float64(row.L3), float64(row.L3D)}
		for col := 1; col < 5; col++ {
			d := model[col] - p[col]
			if d < 0 {
				d = -d
			}
			total += d / p[col]
			n++
		}
	}
	return 100 * total / float64(n), nil
}
