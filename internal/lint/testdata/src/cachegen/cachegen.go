// Package cachegen exercises the plan-cache generation-soundness rule. The
// golden test wires Compile as the compile root, watches World and CostModel,
// guards CostModel (whole type) plus World.Costs/World.Caps/World.M, and
// declares SetCosts/SetCaps as generation setters with World.Costs
// setter-only. Tuning is the seeded stale-plan fixture: a field the compile
// path reads with no generation counter to invalidate cached plans.
package cachegen

// CostModel is guarded as a whole type: CostGen covers every field.
type CostModel struct {
	Alpha int
	Beta  int
}

// Machine holds the generation counters the cache key checks.
type Machine struct {
	CostGen uint64
	CapsGen uint64
}

// World is the watched compile-path state.
type World struct {
	M      *Machine
	Costs  CostModel
	Caps   uint64
	Tuning int // no generation counter covers this field
}

// Compile is the compile root (wired by the golden test's CompileRoots).
func Compile(w *World) int {
	c := w.Costs.Alpha + w.Costs.Beta // guarded: CostModel whole-type, World.Costs
	c += int(w.Caps)                  // guarded: World.Caps under CapsGen
	c += w.Tuning                     // want "not generation-guarded"
	return c + helper(w)
}

// helper is reached transitively from the compile root; the walk must not
// stop at the root's own body.
func helper(w *World) int {
	return w.Tuning * 2 // want "not generation-guarded"
}

// CompileDelivery is a second compile root: the same guarded-field obligations apply to every root in
// CompileRoots, so an unguarded read here must be flagged exactly as one
// under Compile would be.
func CompileDelivery(w *World, level int) int {
	c := w.Costs.Alpha * level // guarded: CostModel whole-type, World.Costs
	c += w.Tuning              // want "not generation-guarded"
	return c
}

// SetCosts is the designated Costs setter and bumps its counter: clean.
func (w *World) SetCosts(c CostModel) {
	w.Costs = c
	w.M.CostGen++
}

// SetCaps is declared as a generation setter but forgot the bump — the
// acceptance case: deleting a bump from a setter fails the build.
func (w *World) SetCaps(v uint64) { // want "does not increment"
	w.Caps = v
}

// SetProfile replaces costs AND caps in one call, so it is declared with two
// generation obligations — but bumps only CostGen. The missing CapsGen bump
// is the acceptance case for multi-counter setters: plans keyed on the
// capability generation would replay the old capability word.
func (w *World) SetProfile(c CostModel, caps uint64) { // want "does not increment"
	w.Costs = c
	w.Caps = caps
	w.M.CostGen++
}

// Recalibrate writes a setter-only field without going through the setter,
// skipping the generation bump.
func (w *World) Recalibrate() {
	w.Costs = CostModel{Alpha: 1} // want "outside its designated setter"
}
