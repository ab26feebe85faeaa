package hyper

import "repro/internal/sim"

// ExecuteLedger is Execute with the settled transaction's per-stage cost
// ledger exposed — test-only access to the otherwise stack-local ExitContext,
// so the metamorphic settle-ledger tests (here and in the external
// hyper_test package, which can import experiment without a cycle) can assert
// sum(ledger) == Cost for every transaction the matrix runs.
func (w *World) ExecuteLedger(v *VCPU, op Op) ([]sim.Cycles, sim.Cycles, error) {
	var tx ExitContext
	w.newTx(&tx, v, op, BoundaryExecute)
	w.begin(&tx)
	derr := w.dispatch(&tx)
	cost, err := w.settle(&tx, derr)
	ledger := make([]sim.Cycles, stageCount)
	copy(ledger, tx.ledger[:])
	return ledger, cost, err
}
