package experiment

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
)

// TestStageSweepDefaultMatchesGolden pins the sweep's unit to the committed
// fixture: StageBreakdownUnder on the default profile must render exactly the
// bytes StageBreakdown does — naming the default is not a different testbed.
func TestStageSweepDefaultMatchesGolden(t *testing.T) {
	rows, err := StageBreakdownUnder(profile.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatStageBreakdown(rows)
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "stages.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("default-profile sweep drifted from stages.golden\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestStageSweepAllProfiles re-derives the attribution on every registered
// calibration profile and checks the invariant the sweep exists to audit:
// under any testbed's cost model, the stage shares decompose the measured
// total exactly — attribution never invents or loses cycles.
func TestStageSweepAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full stage matrix per registered profile")
	}
	for _, p := range profile.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			rows, err := StageBreakdownUnder(p.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatal("empty stage matrix")
			}
			for _, r := range rows {
				var sum int64
				for s := 0; s < trace.NumStages; s++ {
					sum += int64(r.Stages[s])
				}
				if sum != int64(r.Total) {
					t.Errorf("%s/%s under %s: stage shares sum to %d, total is %d",
						r.Micro, r.Config, p.Name, sum, int64(r.Total))
				}
			}
		})
	}
}
