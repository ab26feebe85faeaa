package hyper

import (
	"strings"
	"testing"

	"repro/internal/apic"
	"repro/internal/sim"
	"repro/internal/vmx"
)

// observeSettled and observeStage are the per-stage reference observe is
// tested against: one settled outermost transaction is observeSettled on its
// boundary plus observeStage for each nonzero stage.

// observeSettled notes one settled outermost transaction on the boundary.
func (ss *StageStats) observeSettled(b Boundary) { ss.Settled[b]++ }

// observeStage records one stage's contribution to a settled outermost
// transaction: c cycles accrued at the stage, on the boundary, for the exit
// reason index (pass reason < 0 for boundaries that carry none).
func (ss *StageStats) observeStage(b Boundary, reason int, s Stage, c sim.Cycles) {
	ss.BoundaryCycles[b][s] += c
	if reason >= 0 {
		ss.ReasonCycles[reason][s] += c
	}
	ss.Hist[s].Observe(c)
}

func TestStageStatsNilSafe(t *testing.T) {
	var ss *StageStats
	if ss.StageTotal(StageForward) != 0 || ss.BoundaryTotal(BoundaryExecute) != 0 || ss.TotalCycles() != 0 || ss.TotalSettled() != 0 {
		t.Fatal("nil StageStats accumulated something")
	}
}

func TestStageStatsObserve(t *testing.T) {
	ss := &StageStats{}
	ss.observe(BoundaryExecute, vmx.ExitVMCALL, &[NumStages]sim.Cycles{StageRoute: 750, StageForward: 38300})
	// A wake settles with no exit reason.
	ss.observe(BoundaryWake, 0, &[NumStages]sim.Cycles{StageDeliver: 40})

	if got := ss.StageTotal(StageForward); got != 38300 {
		t.Fatalf("forward total = %v", got)
	}
	if got := ss.BoundaryTotal(BoundaryExecute); got != 39050 {
		t.Fatalf("Execute total = %v", got)
	}
	if got := ss.TotalCycles(); got != 39090 {
		t.Fatalf("grand total = %v", got)
	}
	if ss.TotalSettled() != 2 || ss.Settled[BoundaryExecute] != 1 || ss.Settled[BoundaryWake] != 1 {
		t.Fatalf("settled counts: %+v", ss.Settled)
	}
	if ss.ReasonCycles[vmx.ExitVMCALL.Index()][StageRoute] != 750 {
		t.Fatal("reason table missed the route charge")
	}
	// A delivery boundary must stay out of the reason table entirely.
	for r := range ss.ReasonCycles {
		if ss.ReasonCycles[r][StageDeliver] != 0 {
			t.Fatalf("deliver cycles leaked into reason table at %d", r)
		}
	}
	if ss.Hist[StageForward].Count() != 1 {
		t.Fatal("forward histogram missed its sample")
	}
}

// TestObserveLedgerMatchesStages: observing a whole ledger in one call is
// observeSettled plus observeStage for each nonzero stage — tables,
// histograms and settle counts — for Execute reasons and for delivery
// boundaries, which carry none.
func TestObserveLedgerMatchesStages(t *testing.T) {
	txs := []struct {
		b      Boundary
		r      vmx.ExitReason
		ledger [NumStages]sim.Cycles
	}{
		{BoundaryExecute, vmx.ExitVMCALL, [NumStages]sim.Cycles{StageRoute: 750, StageForward: 38300}},
		{BoundaryExecute, vmx.ExitHLT, [NumStages]sim.Cycles{1, 2, 3, 4, 5, 6, 7}},
		{BoundaryWake, 0, [NumStages]sim.Cycles{StageDeliver: 40}},
		{BoundaryTimerIRQ, 0, [NumStages]sim.Cycles{}},
	}
	var want, got StageStats
	for i := range txs {
		tx := &txs[i]
		reason := -1
		if tx.b == BoundaryExecute {
			reason = tx.r.Index()
		}
		want.observeSettled(tx.b)
		for s, c := range tx.ledger {
			if c != 0 {
				want.observeStage(tx.b, reason, Stage(s), c)
			}
		}
		got.observe(tx.b, tx.r, &tx.ledger)
	}
	if got != want {
		t.Errorf("observe diverges from observeSettled+observeStage:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

func TestStageStatsString(t *testing.T) {
	ss := &StageStats{}
	ss.observe(BoundaryExecute, vmx.ExitVMCALL, &[NumStages]sim.Cycles{StageRoute: 750, StageForward: 38300})
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

// TestStageStatsMatchesReturnedCost is the settle-ledger contract surfaced
// through the observability layer: for any single outermost Execute, the
// cycles StageStats observes are exactly the cost the boundary returned.
func TestStageStatsMatchesReturnedCost(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		w, v, net := nestedOpStack(t, depth)
		for _, op := range steadyOps(w, v, net) {
			ss := &StageStats{}
			w.Stages = ss
			cost := exec(t, w, v, op)
			w.Stages = nil
			if got := ss.TotalCycles(); got != cost {
				t.Errorf("depth %d %v: observed %v cycles, boundary returned %v", depth, op.Kind, got, cost)
			}
			if ss.TotalSettled() != 1 {
				t.Errorf("depth %d %v: %d outermost transactions observed, want 1", depth, op.Kind, ss.TotalSettled())
			}
			if ss.Settled[BoundaryExecute] != 1 {
				t.Errorf("depth %d %v: settle not attributed to the Execute boundary", depth, op.Kind)
			}
		}
	}
}

// TestStageStatsOutermostOnly drives the nesting cases — an IPI whose
// delivery wakes a halted destination (a Wake boundary inside Execute), and
// the paravirtual kick cascade (nested Execute re-entries) — and asserts the
// nested boundaries are folded into the outer transaction instead of being
// observed twice.
func TestStageStatsOutermostOnly(t *testing.T) {
	w, v, net := nestedOpStack(t, 2)
	dest := v.VM.VCPUs[(v.ID+1)%len(v.VM.VCPUs)]
	exec(t, w, dest, Halt())

	ss := &StageStats{}
	w.Stages = ss
	ipiCost := exec(t, w, v, SendIPI(uint32(dest.ID), apic.VectorReschedule))
	kickCost := exec(t, w, v, DevNotify(net.Doorbell))
	w.Stages = nil

	if dest.Idle {
		t.Fatal("IPI did not wake the destination")
	}
	if got := ss.TotalSettled(); got != 2 {
		t.Fatalf("observed %d outermost transactions, want exactly the 2 Executes", got)
	}
	if got := ss.Settled[BoundaryWake]; got != 0 {
		t.Errorf("nested wake observed as its own transaction %d times", got)
	}
	if got := ss.TotalCycles(); got != ipiCost+kickCost {
		t.Errorf("observed %v cycles, boundaries returned %v", got, ipiCost+kickCost)
	}
}

// TestStageStatsReconcilesWithStats is the aggregate reconciliation: over a
// run driven purely through World boundaries, the per-stage grand total
// equals the Stats grand total (LevelCycles sum plus guest-charged fast-path
// cycles) — every charged cycle is attributed to a stage exactly once.
func TestStageStatsReconcilesWithStats(t *testing.T) {
	for _, depth := range []int{2, 3} {
		w, v, net := nestedOpStack(t, depth)
		stats := w.Host.Machine.Stats
		stats.Reset()
		ss := &StageStats{}
		w.Stages = ss
		var returned sim.Cycles
		for i := 0; i < 5; i++ {
			for _, op := range steadyOps(w, v, net) {
				returned += exec(t, w, v, op)
			}
			returned += w.DeviceRX(net, v)
		}
		w.Stages = nil
		if got := ss.TotalCycles(); got != returned {
			t.Errorf("depth %d: stage total %v, boundaries returned %v", depth, got, returned)
		}
		if got, want := ss.TotalCycles(), stats.TotalCycles(); got != want {
			t.Errorf("depth %d: stage total %v does not reconcile with Stats grand total %v", depth, got, want)
		}
	}
}

// TestExecuteLedgerSumsToCost asserts the per-transaction form of the settle
// invariant directly on the ledger, per stage index.
func TestExecuteLedgerSumsToCost(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		w, v, net := nestedOpStack(t, depth)
		for _, op := range steadyOps(w, v, net) {
			ledger, cost, err := w.ExecuteLedger(v, op)
			if err != nil {
				t.Fatal(err)
			}
			var sum sim.Cycles
			for _, c := range ledger {
				sum += c
			}
			if sum != cost {
				t.Errorf("depth %d %v: ledger sums to %v, cost is %v (%v)", depth, op.Kind, sum, cost, ledger)
			}
		}
	}
}

// TestExecuteAllocFreeWithStageStats extends the steady-state allocation
// contract to the observe path: attaching StageStats must keep Execute at
// zero allocations per operation.
func TestExecuteAllocFreeWithStageStats(t *testing.T) {
	for _, depth := range []int{2, 3} {
		w, v, net := nestedOpStack(t, depth)
		w.Stages = &StageStats{}
		ops := steadyOps(w, v, net)
		for _, op := range ops {
			if _, err := w.Execute(v, op); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range ops {
			op := op
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := w.Execute(v, op); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("depth %d: Execute(%v) with StageStats attached allocates %.1f times per op, want 0",
					depth, op.Kind, allocs)
			}
		}
	}
}
