package hyper

import "repro/internal/sim"

// ExecuteLedger is Execute with the settled transaction's per-stage cost
// ledger exposed, read through a StageStats sink attached for the one call —
// so the metamorphic settle-ledger tests (here and in the external hyper_test
// package, which can import experiment without a cycle) can assert
// sum(ledger) == Cost for every transaction the matrix runs. The world's own
// sink is back in place on return and does not observe the call. Call it
// outside any transaction: only an outermost transaction reaches a sink.
func (w *World) ExecuteLedger(v *VCPU, op Op) ([]sim.Cycles, sim.Cycles, error) {
	var ss StageStats
	prev := w.Stages
	w.Stages = &ss
	cost, err := w.Execute(v, op)
	w.Stages = prev
	return ss.BoundaryCycles[BoundaryExecute][:], cost, err
}
