package experiment

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// stageTablesGolden sits outside testdata/golden, whose files
// TestGoldenMatrix reads as registry entries.
const stageTablesGolden = "testdata/stage-tables.golden"

// TestCellStageTables pins the stage tables of cells no registry entry
// renders: MySQL, the one Table 2 profile that issues all seven op classes,
// on the Figure 7 nested configurations and L3+DVH, and the two delivery
// storms. A delivery charged to the wrong stage moves no cycle total, so only
// a table like this one can show it. NVSIM_UPDATE_GOLDEN=1 rewrites the
// golden, only ever for a deliberate change to the attribution.
func TestCellStageTables(t *testing.T) {
	mysql, ok := workload.ProfileByName("MySQL")
	if !ok {
		t.Fatal("no MySQL profile")
	}
	l2pv := Spec{Depth: 2, IO: IOParavirt}
	l2dvh := Spec{Depth: 2, IO: IODVH}
	cases := []struct {
		run  cellRun
		spec Spec
	}{
		{runOf(mysql), l2pv},
		{runOf(mysql), Spec{Depth: 2, IO: IOPassthrough}},
		{runOf(mysql), Spec{Depth: 2, IO: IODVHVP}},
		{runOf(mysql), l2dvh},
		{runOf(mysql), Spec{Depth: 3, IO: IODVH}},
		{runOf(workload.StormTimer), l2pv},
		{runOf(workload.StormTimer), l2dvh},
		{runOf(workload.StormTimer), Spec{Depth: 3, IO: IOParavirt}},
		{runOf(workload.StormIPI), l2pv},
		{runOf(workload.StormIPI), l2dvh},
	}
	var b strings.Builder
	for _, c := range cases {
		rec, err := cell(c.spec, c.run)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %v at L%d %v\n%s\n", c.run, c.spec.Depth, c.spec.IO, rec.stages.String())
	}
	checkGolden(t, filepath.FromSlash(stageTablesGolden), b.String())
}

// TestStormStagesCoverMeasuredEvents holds the storms to the sink contract
// RunMicro keeps: on every Table 3 configuration, a storm cell's stage table
// observes exactly its stormEvents measured operations, so its cycles divided
// by stormEvents are the storm's average. The halts that park a vCPU before a
// waking delivery are setup and stay out of the table.
func TestStormStagesCoverMeasuredEvents(t *testing.T) {
	for _, s := range workload.Storms() {
		for _, cfg := range table3Configs {
			rec, err := cell(cfg.spec, runOf(s))
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.stages.TotalSettled(); got != stormEvents {
				t.Errorf("%v on %s: stage table settled %d transactions, want %d", s, cfg.label, got, stormEvents)
			}
			if got := rec.stages.TotalCycles() / stormEvents; got != rec.avg {
				t.Errorf("%v on %s: stage cycles per event %v, storm average %v", s, cfg.label, got, rec.avg)
			}
		}
	}
}
