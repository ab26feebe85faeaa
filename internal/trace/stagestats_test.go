package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vmx"
)

func TestStageStatsNilSafe(t *testing.T) {
	var ss *StageStats
	ss.ObserveSettled(0)
	ss.ObserveStage(0, int(vmx.ExitVMCALL.Index()), 4, 100)
	if ss.StageTotal(4) != 0 || ss.BoundaryTotal(0) != 0 || ss.TotalSettled() != 0 {
		t.Fatal("nil StageStats accumulated something")
	}
}

func TestStageStatsObserve(t *testing.T) {
	ss := &StageStats{}
	ss.ObserveSettled(0)
	ss.ObserveStage(0, vmx.ExitVMCALL.Index(), 2, 750)   // route
	ss.ObserveStage(0, vmx.ExitVMCALL.Index(), 4, 38300) // forward
	ss.ObserveSettled(4)
	ss.ObserveStage(4, -1, 5, 40) // a wake's deliver stage, no exit reason

	if got := ss.StageTotal(4); got != 38300 {
		t.Fatalf("forward total = %v", got)
	}
	if got := ss.BoundaryTotal(0); got != 39050 {
		t.Fatalf("Execute total = %v", got)
	}
	if got := ss.TotalCycles(); got != 39090 {
		t.Fatalf("grand total = %v", got)
	}
	if ss.TotalSettled() != 2 || ss.Settled[0] != 1 || ss.Settled[4] != 1 {
		t.Fatalf("settled counts: %+v", ss.Settled)
	}
	if ss.ReasonCycles[vmx.ExitVMCALL.Index()][2] != 750 {
		t.Fatal("reason table missed the route charge")
	}
	// reason < 0 must stay out of the reason table entirely.
	for r := 0; r < vmx.NumReasonIndexes; r++ {
		if ss.ReasonCycles[r][5] != 0 {
			t.Fatalf("deliver cycles leaked into reason table at %d", r)
		}
	}
	if ss.Hist[4].Count() != 1 {
		t.Fatal("forward histogram missed its sample")
	}
}

// TestObserveLedgerMatchesStages: recording a whole ledger in one call is
// ObserveSettled plus ObserveStage for each nonzero stage — tables,
// histograms and settle counts — for Execute reasons, delivery boundaries
// without one, and out-of-range boundary and reason indexes.
func TestObserveLedgerMatchesStages(t *testing.T) {
	ledgers := []struct {
		boundary, reason int
		ledger           [NumStages]sim.Cycles
	}{
		{0, vmx.ExitVMCALL.Index(), [NumStages]sim.Cycles{2: 750, 4: 38300}},
		{0, vmx.ExitHLT.Index(), [NumStages]sim.Cycles{0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7}},
		{4, -1, [NumStages]sim.Cycles{5: 40}},
		{1, -1, [NumStages]sim.Cycles{}},
		{NumBoundaries + 2, vmx.NumReasonIndexes + 9, [NumStages]sim.Cycles{6: 1 << 40}},
		{-3, -1, [NumStages]sim.Cycles{3: 12}},
	}
	var want, got StageStats
	for _, l := range ledgers {
		want.ObserveSettled(l.boundary)
		for s, c := range l.ledger {
			if c != 0 {
				want.ObserveStage(l.boundary, l.reason, s, c)
			}
		}
		got.ObserveLedger(l.boundary, l.reason, &l.ledger)
	}
	if got != want {
		t.Errorf("ObserveLedger diverges from ObserveSettled+ObserveStage:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
	var nilSS *StageStats
	nilSS.ObserveLedger(0, 0, &ledgers[0].ledger)
}

func TestStageStatsClamping(t *testing.T) {
	ss := &StageStats{}
	ss.ObserveSettled(-1)
	ss.ObserveSettled(NumBoundaries + 3)
	ss.ObserveStage(-2, -1, -5, 10)
	ss.ObserveStage(NumBoundaries+1, vmx.NumReasonIndexes+9, NumStages+1, 20)
	if ss.Settled[0] != 1 || ss.Settled[NumBoundaries-1] != 1 {
		t.Fatalf("boundary clamping: %+v", ss.Settled)
	}
	if ss.BoundaryCycles[0][0] != 10 {
		t.Fatal("negative indexes did not clamp to 0")
	}
	if ss.BoundaryCycles[NumBoundaries-1][NumStages-1] != 20 {
		t.Fatal("overflowing indexes did not clamp to the last cell")
	}
	if ss.ReasonCycles[vmx.NumReasonIndexes-1][NumStages-1] != 20 {
		t.Fatal("overflowing reason did not clamp to the last row")
	}
}

func TestStageStatsMerge(t *testing.T) {
	mk := func(seed sim.Cycles) *StageStats {
		ss := &StageStats{}
		ss.ObserveSettled(0)
		ss.ObserveStage(0, vmx.ExitVMCALL.Index(), 2, seed)
		ss.ObserveStage(0, vmx.ExitVMCALL.Index(), 4, seed*10)
		return ss
	}
	a, b := mk(100), mk(200)
	var merged StageStats
	merged.Merge(a)
	merged.Merge(b)
	merged.Merge(nil) // no-op

	if merged.StageTotal(2) != 300 || merged.StageTotal(4) != 3000 {
		t.Fatalf("merged totals: route=%v forward=%v", merged.StageTotal(2), merged.StageTotal(4))
	}
	if merged.TotalSettled() != 2 {
		t.Fatalf("merged settled = %d", merged.TotalSettled())
	}
	if merged.Hist[2].Count() != 2 {
		t.Fatal("merge dropped histogram samples")
	}
	// Merge order must not affect rendered output (pool determinism).
	var ab, ba StageStats
	ab.Merge(a)
	ab.Merge(b)
	ba.Merge(b)
	ba.Merge(a)
	if ab.String() != ba.String() {
		t.Fatal("merge order changed rendered output")
	}
}

func TestStageStatsReset(t *testing.T) {
	ss := &StageStats{}
	ss.ObserveSettled(1)
	ss.ObserveStage(1, -1, 5, 40)
	ss.Reset()
	if ss.TotalCycles() != 0 || ss.TotalSettled() != 0 || ss.Hist[5].Count() != 0 {
		t.Fatal("Reset left attribution behind")
	}
}

func TestStageStatsString(t *testing.T) {
	ss := &StageStats{}
	ss.ObserveSettled(0)
	ss.ObserveStage(0, vmx.ExitVMCALL.Index(), 2, 750)
	ss.ObserveStage(0, vmx.ExitVMCALL.Index(), 4, 38300)
	out := ss.String()
	for _, want := range []string{"Execute", "VMCALL", "route", "forward", "750", "38300", "per-stage cost histograms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WakeIfIdle") {
		t.Fatalf("String() printed an untouched boundary row:\n%s", out)
	}
}

func TestStageAndBoundaryNameBounds(t *testing.T) {
	if StageName(-1) != "stage(?)" || StageName(NumStages) != "stage(?)" {
		t.Fatal("out-of-range stage names")
	}
	if BoundaryName(-1) != "boundary(?)" || BoundaryName(NumBoundaries) != "boundary(?)" {
		t.Fatal("out-of-range boundary names")
	}
	if StageName(4) != "forward" || BoundaryName(0) != "Execute" {
		t.Fatal("name tables shifted")
	}
}
