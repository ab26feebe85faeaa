// Package stageledger exercises the begin/settle pairing and ledger-charge
// rules. The golden test wires Eng.begin/Eng.settle as the transaction
// boundary methods and Tx.add as the ledger charge.
package stageledger

// Stage indexes the per-stage charge table.
type Stage int

// The two stages of the toy pipeline.
const (
	StageDecode Stage = iota
	StageRoute
)

// Tx is the per-exit transaction with its per-stage charge ledger.
type Tx struct {
	charges [2]int
}

func (t *Tx) add(s Stage, c int) { t.charges[s] += c }

// Eng owns the transaction boundary.
type Eng struct{ depth int }

func (e *Eng) begin(t *Tx) { e.depth++ }

func (e *Eng) settle(t *Tx, err error) error {
	e.depth--
	return err
}

// Good is a clean boundary: one begin, every return routed through settle.
func (e *Eng) Good(t *Tx) error {
	e.begin(t)
	if e.depth > 1 {
		return e.settle(t, nil)
	}
	return e.settle(t, nil)
}

// EarlyReturn bails out between begin and settle, leaking the transaction.
func (e *Eng) EarlyReturn(t *Tx) error {
	e.begin(t)
	if e.depth > 3 {
		return nil // want "skips the settle point"
	}
	return e.settle(t, nil)
}

// DoubleBegin opens the transaction twice on one boundary entry.
func (e *Eng) DoubleBegin(t *Tx) error {
	e.begin(t)
	e.begin(t) // want "opens a transaction more than once"
	return e.settle(t, nil)
}

// LooseSettle settles mid-body and keeps going; settle must be the exit.
func (e *Eng) LooseSettle(t *Tx) error {
	e.begin(t)
	err := e.settle(t, nil) // want "outside a return statement"
	return err              // want "skips the settle point"
}

// Orphan settles a transaction it never opened.
func (e *Eng) Orphan(t *Tx) error {
	return e.settle(t, nil) // want "never opened"
}

// NoReturn opens a transaction and falls off the end without settling.
func (e *Eng) NoReturn(t *Tx) {
	e.begin(t) // want "no return routing it through settle"
	t.add(StageDecode, 1)
}

// ChargeDecode charges a single constant stage: clean.
func ChargeDecode(t *Tx) {
	t.add(StageDecode, 1)
}

// TwoStages attributes cost to two different stages from one function.
func TwoStages(t *Tx) {
	t.add(StageDecode, 1)
	t.add(StageRoute, 1) // want "charges a second stage"
}

// VarStage charges through a runtime value, defeating static attribution.
func VarStage(t *Tx, s Stage) {
	t.add(s, 1) // want "non-constant stage"
}
