package hyper

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// This file is the plan replay cache: every pure cost/charge tree of the
// engine — the exit-multiplication recursion behind a forwarded exit (paper
// Figure 1a), interrupt injection, the DeviceRX virtio cascade, the wake
// ladder and the guest scheduler's context switch — is a function of a small
// key (plan kind, level, and for forwarded exits the exit reason), the
// personalities of the hypervisor stack up to that level, the host
// capability word and the cost model. The simulator walks each tree once,
// flattens the walk into an immutable plan, and replays the plan on every
// later identical charge in O(levels) with zero recursion and zero
// allocations. Only the pure charge tree is cached; side effects (timer
// arming, IPI posting, EPT fills, LAPIC delivery, the Idle flag, VMCS
// switches) stay live in the callers.
//
// Correctness rests on one structural property: each tree is written exactly
// once, parameterized by a chargeSink. The live sink (*World) charges the
// stats tables and trace recorder directly — that is the NVSIM_NOPLANCACHE
// reference path, byte-identical to the pre-cache engine. The compiling sink
// (*planBuilder) aggregates the same emissions into a plan. Replaying a plan
// therefore cannot diverge from recomputing it: both are projections of the
// same walk, and the A/B tests pin them together.
//
// Exit multiplication is self-similar: every privileged instruction a guest
// hypervisor at Lk runs is an exit that Lk-1 handles with the same script,
// whichever instruction of the tree it is. The compiling sink exploits that:
// it compiles each distinct (level, reason) instruction subtree once per
// compile and merges it n times, so a compile costs O(levels x distinct
// subtrees) where the tree itself has O(exits) nodes.

// chargeSink receives every emission of a charge tree: cycle charges per
// hypervisor level, exits, and runs of privileged instructions.
// Implementations: *World (live, charges the stats sink and trace recorder)
// and *planBuilder (aggregates into a plan; a traced World never replays, so
// plans hold no trace events).
type chargeSink interface {
	chargeLevel(level int, c sim.Cycles)
	// exit reports one hardware exit with the given reason, taken by the
	// level from and handled by the level handler.
	exit(r vmx.ExitReason, from, handler int)
	// privOps runs n consecutive privileged instructions with the given
	// reason, executed by the hypervisor at level: exactly n walks of
	// privOpCost into this sink.
	privOps(stack []*Hypervisor, level int, reason vmx.ExitReason, n int)
}

// chargeLevel implements chargeSink live: charges go straight to the stats
// tables, as the pre-cache engine did.
func (w *World) chargeLevel(level int, c sim.Cycles) {
	w.Host.Machine.Stats.ChargeLevel(level, c)
}

// exit implements chargeSink live, and is the one place an exit is
// recorded: it counts the exit at its handler and puts it on the timeline
// (Record on a nil recorder is a no-op). Dispatch calls it too, for the
// exit an Execute takes.
func (w *World) exit(r vmx.ExitReason, from, handler int) {
	w.Host.Machine.Stats.RecordHandledExit(r, handler)
	w.Tracer.Record(r, from, handler)
}

// privOps implements chargeSink live: it walks the instruction's subtree n
// times, as the pre-cache engine did.
func (w *World) privOps(stack []*Hypervisor, level int, reason vmx.ExitReason, n int) {
	for i := 0; i < n; i++ {
		w.privOpCost(stack, level, reason, w)
	}
}

// forwardCost is the pure cost/charge tree of one forwarded exit: the host
// reflects the exit into L1, intermediate levels re-reflect toward the
// owner, and the owner runs its handler — every privileged instruction of
// which recurses through privOpCost. It emits all charges and exits into
// the sink. Owner side effects are explicitly NOT part of this
// tree (see ownerEffects).
func (w *World) forwardCost(stack []*Hypervisor, reason vmx.ExitReason, owner int, sink chargeSink) {
	sink.chargeLevel(0, w.Costs.ReflectWork+w.Costs.HwEntry)

	// Intermediate levels re-reflect toward the owner.
	for j := 1; j < owner; j++ {
		w.scriptCost(stack, j, stack[j].Personality.ReflectScript(), sink)
	}
	// The owner's handler.
	w.scriptCost(stack, owner, stack[owner].Personality.HandlerScript(reason), sink)
}

// scriptCost charges the cost of a hypervisor code path executed at the given
// level. At level 1 with VMCS shadowing, VMREAD/VMWRITEs are satisfied in
// hardware; at deeper levels every one of them is a trapped instruction
// whose emulation recurses — the exit-multiplication engine.
func (w *World) scriptCost(stack []*Hypervisor, level int, s Script, sink chargeSink) {
	c := &w.Costs
	if level == 0 {
		cost := sim.Cycles(s.VMAccesses)*c.NativeVMAccess + sim.Cycles(s.PrivOps)*c.PrivEmulWork + s.SoftWork
		if s.Resume {
			cost += c.ResumeMergeWork + c.HwEntry
		}
		sink.chargeLevel(0, cost)
		return
	}

	if s.VMAccesses > 0 {
		if level == 1 && w.Host.Caps.Has(vmx.CapVMCSShadowing) {
			sink.chargeLevel(level, sim.Cycles(s.VMAccesses)*c.ShadowVMAccess)
		} else {
			sink.privOps(stack, level, vmx.ExitVMREAD, s.VMAccesses)
		}
	}
	sink.privOps(stack, level, vmx.ExitVMPTRLD, s.PrivOps)
	sink.chargeLevel(level, s.SoftWork)
	if s.Resume {
		sink.privOps(stack, level, vmx.ExitVMRESUME, 1)
	}
}

// privOpCost charges one privileged virtualization instruction executed by
// the hypervisor at the given level. Level-1 instructions are emulated
// directly by the host; deeper ones are forwarded to the level below, whose
// emulation path is itself a script full of privileged instructions.
func (w *World) privOpCost(stack []*Hypervisor, level int, reason vmx.ExitReason, sink chargeSink) {
	c := &w.Costs
	sink.exit(reason, level, level-1)

	if level == 1 {
		work := c.PrivEmulWork
		if reason == vmx.ExitVMRESUME || reason == vmx.ExitVMLAUNCH {
			work += c.ResumeMergeWork
		}
		sink.chargeLevel(0, c.HwExit+c.HostDispatch+work+c.HwEntry)
		return
	}

	// Forward the emulation to the hypervisor one level below.
	handler := level - 1
	sink.chargeLevel(0, c.HwExit+c.ReflectWork+c.HwEntry)
	for j := 1; j < handler; j++ {
		w.scriptCost(stack, j, stack[j].Personality.ReflectScript(), sink)
	}
	w.scriptCost(stack, handler, stack[handler].Personality.EmulScript(reason), sink)
}

// planKind names the charge tree a plan caches. With the level the tree ends
// at — and, for forwarded exits only, the exit reason — it is the whole
// cache key: every other per-call input (the injection script, the switch
// script, the reasons injections and the cascade exit with) follows from the
// kind and the personalities the plan pins.
type planKind uint8

const (
	// planForward is a forwarded exit's reflect-and-handle tree up to the
	// owner level.
	planForward planKind = iota
	// planInject is an interrupt injection: an EXTERNAL_INTERRUPT exit into
	// the guest hypervisor at the level, which runs its InjectScript.
	planInject
	// planCascade is the DeviceRX receive cascade: the host vhost backend
	// plus every interposing level's backend up to the provider level.
	planCascade
	// planWake is the wake ladder up to the idle-owner level. The no-wake
	// case never reaches the cache, so "a wake happened" is in the key by
	// construction.
	planWake
	// planSwitch is the guest scheduler's context-switch charge at the
	// switching level.
	planSwitch
)

// numPlanRows sizes the plan table: one row per exit-reason index for
// forwarded exits, then one row for each other kind.
const numPlanRows = vmx.NumReasonIndexes + int(planSwitch)

// planRow is the table row of a key's slot; the level is the column.
func planRow(kind planKind, reason vmx.ExitReason) int {
	if kind == planForward {
		return reason.Index()
	}
	return vmx.NumReasonIndexes + int(kind) - 1
}

// walk runs one kind's charge tree into the sink. Only planForward reads
// reason; every other kind fixes its own. The wake ladder reads no stack, so
// stack may be nil for it.
func (w *World) walk(stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int, sink chargeSink) {
	switch kind {
	case planForward:
		w.forwardCost(stack, reason, level, sink)
	case planInject:
		w.guestPathCost(stack, vmx.ExitExternalInterrupt, level, stack[level].Personality.InjectScript(), sink)
	case planCascade:
		w.rxCascadeCost(stack, level, sink)
	case planWake:
		w.wakeLadderCost(level, sink)
	case planSwitch:
		w.scriptCost(stack, level, switchScript(), sink)
	}
}

// handledCount is one aggregated exit-count delta of a plan.
type handledCount struct {
	reason vmx.ExitReason
	level  int
	n      uint64
}

// deltas is everything a charge tree emits, aggregated: what replay
// applies. A plan holds the deltas of its whole tree; a compile also builds
// deltas for each privileged-instruction subtree it memoizes.
type deltas struct {
	// levels holds the per-level ChargeLevel deltas, pre-clamped to the
	// stats tables' level range.
	levels [trace.MaxLevels]sim.Cycles
	// handled holds the aggregated exit counts by handler level, kept
	// sorted by (reason index, level) for deterministic replay.
	handled []handledCount
}

// plan is the compiled, immutable replay form of one charge tree. Replaying
// it applies exactly the stats deltas the tree would emit, in
// O(levels + deltas) with zero allocations.
type plan struct {
	deltas
	// pers pins the plan to the personalities it was compiled against:
	// pers[k] is stack[k].Personality for k in [1, pinned]. Personalities
	// are value identities (stateless, comparable), so an in-place swap —
	// which moves no generation — misses the cache instead of replaying a
	// stale tree.
	pinned int
	pers   [trace.MaxLevels]Personality
}

// matchesStack reports whether the plan was compiled against the same
// personalities the stack currently runs.
func (p *plan) matchesStack(stack []*Hypervisor) bool {
	for k := 1; k <= p.pinned; k++ {
		if p.pers[k] != stack[k].Personality {
			return false
		}
	}
	return true
}

// reset empties the deltas, keeping handled's capacity.
func (d *deltas) reset() {
	d.levels = [trace.MaxLevels]sim.Cycles{}
	d.handled = d.handled[:0]
}

// addHandled adds n exits with reason r handled at the (clamped) level,
// keeping handled sorted. It grows handled only past its capacity, which a
// warm compile scratch already has.
//
//nvlint:cold
func (d *deltas) addHandled(r vmx.ExitReason, level int, n uint64) {
	i := 0
	for i < len(d.handled) && (d.handled[i].reason.Index() < r.Index() ||
		d.handled[i].reason.Index() == r.Index() && d.handled[i].level < level) {
		i++
	}
	if i < len(d.handled) && d.handled[i].reason.Index() == r.Index() && d.handled[i].level == level {
		d.handled[i].n += n
		return
	}
	d.handled = slices.Insert(d.handled, i, handledCount{reason: r, level: level, n: n})
}

// planBuilder is the compiling chargeSink: it aggregates a tree's emissions
// into d, straight into the sorted sparse lists replay reads. Builders live
// in the World's compile scratch and share its subtree memo.
type planBuilder struct {
	s *compileScratch
	d deltas
}

// compileScratch is a World's compile working memory: the builders, the
// subtree memo and the memoized subtrees' deltas. Compiles reuse it, so a
// compile on a warm scratch allocates only the plan it returns. Each compile
// empties the memo before it walks, and no plan keeps a reference into the
// scratch, so nothing one compile leaves in it reaches another's plan.
type compileScratch struct {
	w *World
	// top is the builder of the tree being compiled.
	top planBuilder
	// sub[k] is the builder of the level-k subtree being compiled. A subtree
	// at level k walks only subtrees below k, so one builder per level
	// serves every subtree of a compile.
	sub [trace.MaxLevels]planBuilder
	// memo holds each privileged-instruction subtree compiled so far in this
	// compile. A subtree reads only inputs that one compile holds fixed, so
	// one walk serves every occurrence.
	memo []subtree
	// handled backs the memoized subtrees' exit counts, back to back.
	handled []handledCount
}

// newCompileScratch returns a World's compile scratch, its lists sized for
// compiles on a stack of the given depth, so that a World whose VMs are no
// deeper never grows them: at depth d a compile memoizes at most d*d/2+1
// subtrees, whose exit counts total at most (d-1)*(d-1)*d, the tree's own
// counts number at most d*d, and a level-k subtree's at most k*k (from
// 2, 2, 3 and 1 at depth 2 to 9, 36, 12 and 7 at depth 4, each the most any
// plan kind reached at L2-L4 with and without VMCS shadowing). A deeper
// compile grows them as it needs.
func newCompileScratch(w *World, depth int) *compileScratch {
	s := &compileScratch{
		w:       w,
		memo:    make([]subtree, 0, depth*depth/2+1),
		handled: make([]handledCount, 0, (depth-1)*(depth-1)*depth),
	}
	s.top = planBuilder{s, deltas{handled: make([]handledCount, 0, depth*depth)}}
	for k := range s.sub {
		s.sub[k].s = s
		if k > 0 && k < depth {
			s.sub[k].d.handled = make([]handledCount, 0, k*k)
		}
	}
	return s
}

// subtree is one memoized privileged-instruction subtree: its key and its
// deltas, whose exit counts sit in the scratch's handled list.
type subtree struct {
	level  int
	reason vmx.ExitReason
	deltas
}

// chargeLevel implements chargeSink, clamping exactly as the stats tables
// do so a replayed charge lands on the same row a live charge would.
func (b *planBuilder) chargeLevel(level int, c sim.Cycles) {
	b.d.levels[trace.ClampLevel(level)] += c
}

// exit implements chargeSink: it counts the exit at its handler, with
// RecordHandledExit's clamping. Plans hold no trace events, because charge
// walks a traced World live, so from goes unread.
func (b *planBuilder) exit(r vmx.ExitReason, _, handler int) {
	b.d.addHandled(r, trace.ClampLevel(handler), 1)
}

// privOps implements chargeSink: the first run of a (level, reason) in this
// compile walks privOpCost once into the level's builder, and every run
// merges that subtree n times.
//
//nvlint:cold
func (b *planBuilder) privOps(stack []*Hypervisor, level int, reason vmx.ExitReason, n int) {
	if n <= 0 {
		return
	}
	s := b.s
	i := slices.IndexFunc(s.memo, func(t subtree) bool { return t.level == level && t.reason == reason })
	if i < 0 {
		sb := &s.sub[level]
		sb.d.reset()
		s.w.privOpCost(stack, level, reason, sb)
		lo := len(s.handled)
		s.handled = append(s.handled, sb.d.handled...)
		hi := len(s.handled)
		s.memo = append(s.memo, subtree{level, reason, deltas{sb.d.levels, s.handled[lo:hi:hi]}})
		i = len(s.memo) - 1
	}
	b.merge(&s.memo[i].deltas, n)
}

// merge adds n copies of a subtree's deltas, exactly as n walks of it
// would: sums scale by n.
func (b *planBuilder) merge(sub *deltas, n int) {
	for l, c := range sub.levels {
		b.d.levels[l] += c * sim.Cycles(n)
	}
	for _, h := range sub.handled {
		b.d.addHandled(h.reason, h.level, h.n*uint64(n))
	}
}

// compilePlan walks one charge tree with the compiling sink and flattens it
// into an immutable plan, pinning the personalities of the stack up to the
// level, which must be below trace.MaxLevels (charge walks deeper trees
// live). This is the cold path: it runs once per key, pinned personalities
// and plan generation, and its cost is amortized across every replay. It
// allocates the plan and its exact-size exit counts; everything else it
// works in is the World's compile scratch.
//
//nvlint:cold
func (w *World) compilePlan(stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int) *plan {
	s := w.scratch
	if s == nil {
		s = newCompileScratch(w, len(stack))
		w.scratch = s
	}
	s.memo, s.handled = s.memo[:0], s.handled[:0]
	s.top.d.reset()
	w.walk(stack, kind, reason, level, &s.top)

	p := &plan{pinned: min(level, len(stack)-1)}
	p.levels = s.top.d.levels
	p.handled = make([]handledCount, len(s.top.d.handled))
	copy(p.handled, s.top.d.handled)
	for k := 1; k <= p.pinned; k++ {
		p.pers[k] = stack[k].Personality
	}
	if kind == planForward {
		w.Plan.Compiles++
	} else {
		w.Plan.DeliveryCompiles++
	}
	return p
}

// applyPlan applies a compiled plan's deltas — the aggregated per-level
// charges and exit counts — byte-identical to walking the tree live.
func (w *World) applyPlan(p *plan) {
	stats := w.Host.Machine.Stats
	for l := range p.levels {
		if c := p.levels[l]; c != 0 {
			stats.ChargeLevel(l, c)
		}
	}
	for _, d := range p.handled {
		stats.AddHandledExits(d.reason, d.level, d.n)
	}
}

// planTable is the World's compiled-plan cache, valid for one plan
// generation: one slot per (row, level), where planRow folds the kind and
// the forwarded exit's reason into the row.
type planTable struct {
	gen   uint64
	slots [numPlanRows][trace.MaxLevels]*plan
}

// validPlans returns the World's plan table, lazily created, flushing every
// slot whenever Machine.PlanGen moved (World.SetCosts, World.SetHostCaps,
// VM.ProvideVIOMMU). The stale check is O(1); the steady-state path
// allocates nothing.
func (w *World) validPlans() *planTable {
	gen := w.Host.Machine.PlanGen
	t := w.plans
	if t == nil {
		//nvlint:ignore hotalloc lazy per-World plan-table init, amortized across all replays
		t = &planTable{gen: gen}
		w.plans = t
	} else if t.gen != gen {
		t.slots = [numPlanRows][trace.MaxLevels]*plan{}
		t.gen = gen
		w.Plan.Invalidations++
	}
	return t
}

// charge runs one charge tree into the stats sink. With the cache on, it
// replays the key's compiled plan, compiling on a miss, after a flush, or
// when a pinned personality differs; with NVSIM_NOPLANCACHE, with a Tracer
// attached (a timeline needs every event, and only nvtrace attaches one,
// for one iteration), or at a level the accounting tables cannot index, it
// walks the tree live. This is the single live-or-replay decision for every
// cached path. Only planForward reads reason; callers pass 0 for the other
// kinds.
func (w *World) charge(stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int) {
	if w.planCacheOff || w.Tracer != nil || level < 0 || level >= trace.MaxLevels {
		w.walk(stack, kind, reason, level, w)
		return
	}
	slot := &w.validPlans().slots[planRow(kind, reason)][level]
	if p := *slot; p == nil || !p.matchesStack(stack) {
		*slot = w.compilePlan(stack, kind, reason, level)
	}
	if kind == planForward {
		w.Plan.Replays++
	} else {
		w.Plan.DeliveryReplays++
	}
	w.applyPlan(*slot)
}
