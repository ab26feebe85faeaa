package hyper

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// StageStats is the per-stage latency observability layer over the exit
// pipeline: it answers where a transaction's cycles accrue — route vs forward
// vs deliver — which the aggregate trace.Stats tables cannot (they attribute
// cycles to hypervisor *levels*, not pipeline *stages*). The pipeline's
// single settle point feeds it through observe, walking the transaction's
// per-stage cost ledger, so exactly the cycles a boundary returned to its
// caller are attributed, once each.
//
// All tables are fixed-size arrays indexed by Stage and Boundary, so the
// observe path allocates nothing; rendering iterates them in index order,
// so output is deterministic.
//
// The simulator observes only *outermost* transactions: a nested boundary
// (a wake inside an IPI, a cascade kick inside a forwarded doorbell) already
// folds its cost into the enclosing transaction's ledger at the stage that
// invoked it, so observing it again would double-count. Each settled cycle
// therefore appears in exactly one (boundary, stage) cell.
//
// The zero value is ready to use; it is not safe for concurrent use (one per
// World, like trace.Stats).
type StageStats struct {
	// BoundaryCycles attributes cycles by (boundary, stage): which entry
	// point's transactions spent them and in which pipeline phase.
	BoundaryCycles [boundaryCount][NumStages]sim.Cycles
	// ReasonCycles attributes Execute-boundary cycles by (exit reason,
	// stage) — the table that splits a Table 3 row into route/forward/...
	// Delivery boundaries carry no exit reason and are not recorded here.
	ReasonCycles [vmx.NumReasonIndexes][NumStages]sim.Cycles
	// Hist holds the per-stage cost distribution: one sample per settled
	// outermost transaction in which the stage contributed cycles.
	Hist [NumStages]trace.Histogram
	// Settled counts settled outermost transactions per boundary, including
	// zero-cost ones (a wake of a running vCPU settles without charging).
	Settled [boundaryCount]uint64
}

// observe records one settled outermost transaction from its whole per-stage
// cost ledger: the boundary's settle count, then, for every stage with
// nonzero cycles, the (boundary, stage) cell, the (exit reason, stage) cell
// for Execute transactions, and the stage histogram. It runs on every
// outermost settle of every observed run, so it is allocation-free.
func (ss *StageStats) observe(tx *ExitContext) {
	ss.Settled[tx.Boundary]++
	bc := &ss.BoundaryCycles[tx.Boundary]
	var rc *[NumStages]sim.Cycles
	if tx.Boundary == BoundaryExecute {
		rc = &ss.ReasonCycles[tx.Reason.Index()]
	}
	for s, c := range tx.ledger {
		if c == 0 {
			continue
		}
		bc[s] += c
		if rc != nil {
			rc[s] += c
		}
		ss.Hist[s].Observe(c)
	}
}

// StageTotal sums the cycles attributed to one stage across all boundaries.
func (ss *StageStats) StageTotal(s Stage) sim.Cycles {
	if ss == nil {
		return 0
	}
	var t sim.Cycles
	for b := range ss.BoundaryCycles {
		t += ss.BoundaryCycles[b][s]
	}
	return t
}

// BoundaryTotal sums the cycles attributed to one boundary across all stages.
func (ss *StageStats) BoundaryTotal(b Boundary) sim.Cycles {
	if ss == nil {
		return 0
	}
	var t sim.Cycles
	for _, c := range ss.BoundaryCycles[b] {
		t += c
	}
	return t
}

// TotalCycles sums every attributed cycle. On a consistent run driven only
// through World boundaries this equals the Stats grand total (LevelCycles sum
// plus the guest cycles charged on fast paths) — the reconciliation the
// settle-ledger metamorphic tests assert.
func (ss *StageStats) TotalCycles() sim.Cycles {
	var t sim.Cycles
	for b := range boundaryCount {
		t += ss.BoundaryTotal(b)
	}
	return t
}

// TotalSettled sums settled transactions over every boundary.
func (ss *StageStats) TotalSettled() uint64 {
	if ss == nil {
		return 0
	}
	var t uint64
	for _, n := range ss.Settled {
		t += n
	}
	return t
}

// String renders the attribution: the (boundary, stage) table, the
// (exit reason, stage) table for Execute transactions, then the per-stage
// cost histograms.
func (ss *StageStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage cycles by boundary (%d outermost transactions)\n", ss.TotalSettled())
	fmt.Fprintf(&b, "  %-18s %8s", "boundary", "txns")
	for s := range NumStages {
		fmt.Fprintf(&b, " %10s", s)
	}
	b.WriteByte('\n')
	for i, n := range ss.Settled {
		bd := Boundary(i)
		if n == 0 && ss.BoundaryTotal(bd) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-18s %8d", bd, n)
		for _, c := range ss.BoundaryCycles[bd] {
			writeCell(&b, c)
		}
		b.WriteByte('\n')
	}
	b.WriteString("stage cycles by exit reason (Execute)\n")
	for r := range ss.ReasonCycles {
		row := &ss.ReasonCycles[r]
		if *row == ([NumStages]sim.Cycles{}) {
			continue
		}
		fmt.Fprintf(&b, "  %-27s", vmx.ExitReason(r).String())
		for _, c := range row {
			writeCell(&b, c)
		}
		b.WriteByte('\n')
	}
	b.WriteString("per-stage cost histograms\n")
	for s := range ss.Hist {
		h := &ss.Hist[s]
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s: %s", Stage(s), h.String())
	}
	return b.String()
}

// writeCell prints one cycles cell, folding zero to "-" so the stacked
// tables read like the paper's.
func writeCell(b *strings.Builder, c sim.Cycles) {
	if c == 0 {
		fmt.Fprintf(b, " %10s", "-")
		return
	}
	fmt.Fprintf(b, " %10d", uint64(c))
}
