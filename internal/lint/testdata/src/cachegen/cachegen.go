// Package cachegen exercises the plan-cache generation-soundness rule. The
// golden test wires Compile as the compile root, watches World and CostModel,
// guards CostModel (whole type) plus World.Costs/World.Caps, and makes
// SetCosts and SetCaps the only writers of World.Costs and World.Caps, each
// owing a Machine.PlanGen bump. Tuning is the seeded stale-plan fixture: a
// field the compile path reads with no generation counter to invalidate
// cached plans.
package cachegen

// CostModel is guarded as a whole type: PlanGen covers every field.
type CostModel struct {
	Alpha int
	Beta  int
}

// Machine holds the generation counter the plan table checks.
type Machine struct {
	PlanGen uint64
}

// World is the watched compile-path state.
type World struct {
	M      *Machine
	Costs  CostModel
	Caps   uint64
	Tuning int // no generation counter covers this field
}

// Compile is the compile root (wired by the golden test's CompileRoot).
func Compile(w *World) int {
	c := w.Costs.Alpha + w.Costs.Beta // guarded: CostModel whole-type, World.Costs
	c += int(w.Caps)                  // guarded: World.Caps under PlanGen
	c += w.Tuning                     // want "not generation-guarded"
	return c + helper(w)
}

// helper is reached transitively from the compile root; the walk must not
// stop at the root's own body.
func helper(w *World) int {
	return w.Tuning * 2 // want "not generation-guarded"
}

// SetCosts is the designated Costs setter and bumps the counter: clean.
func (w *World) SetCosts(c CostModel) {
	w.Costs = c
	w.M.PlanGen++
}

// SetCaps is World.Caps's designated setter but forgot the bump — the
// acceptance case: deleting a bump from a setter fails the build.
func (w *World) SetCaps(v uint64) { // want "does not increment"
	w.Caps = v
}

// Recalibrate writes a setter-only field without going through the setter,
// skipping the generation bump.
func (w *World) Recalibrate() {
	w.Costs = CostModel{Alpha: 1} // want "outside its designated setter"
}
