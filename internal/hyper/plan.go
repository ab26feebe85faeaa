package hyper

import (
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

// chargeSink receives every emission of a charge tree: cycle charges per
// hypervisor level, hardware- and handled-exit counts, and the ordered trace
// events. Implementations: *World (live, charges the stats sink and trace
// recorder) and *planBuilder (aggregates into a plan).
type chargeSink interface {
	chargeLevel(level int, c sim.Cycles)
	hardwareExit(r vmx.ExitReason)
	handledExit(r vmx.ExitReason, level int)
	// traceEvent reports one hardware exit on the timeline; n identical
	// consecutive events may be reported as one call with n > 1.
	traceEvent(r vmx.ExitReason, from, handler, n int)
}

// chargeLevel implements chargeSink live: charges go straight to the stats
// tables, as the pre-cache engine did.
func (w *World) chargeLevel(level int, c sim.Cycles) {
	w.Host.Machine.Stats.ChargeLevel(level, c)
}

// hardwareExit implements chargeSink live.
func (w *World) hardwareExit(r vmx.ExitReason) {
	w.Host.Machine.Stats.RecordHardwareExit(r)
}

// handledExit implements chargeSink live.
func (w *World) handledExit(r vmx.ExitReason, level int) {
	w.Host.Machine.Stats.RecordHandledExit(r, level)
}

// traceEvent implements chargeSink live (RecordRun on a nil recorder is a
// no-op, and with n == 1 it is exactly Record).
func (w *World) traceEvent(r vmx.ExitReason, from, handler, n int) {
	w.Tracer.RecordRun(r, from, handler, n)
}

// forwardCost is the pure cost/charge tree of one forwarded exit: the host
// reflects the exit into L1, intermediate levels re-reflect toward the
// owner, and the owner runs its handler — every privileged instruction of
// which recurses through privOpCost. It emits all charges, counts and trace
// events into the sink and returns the total cycles. Owner side effects are
// explicitly NOT part of this tree (see ownerEffects).
func (w *World) forwardCost(stack []*Hypervisor, reason vmx.ExitReason, owner int, sink chargeSink) sim.Cycles {
	c := &w.Costs
	cost := c.ReflectWork + c.HwEntry
	sink.chargeLevel(0, c.ReflectWork+c.HwEntry)

	// Intermediate levels re-reflect toward the owner.
	for j := 1; j < owner; j++ {
		cost += w.scriptCost(stack, j, stack[j].Personality.ReflectScript(), sink)
	}
	// The owner's handler.
	cost += w.scriptCost(stack, owner, stack[owner].Personality.HandlerScript(reason), sink)
	return cost
}

// scriptCost charges the cost of a hypervisor code path executed at the given
// level. At level 1 with VMCS shadowing, VMREAD/VMWRITEs are satisfied in
// hardware; at deeper levels every one of them is a trapped instruction
// whose emulation recurses — the exit-multiplication engine.
func (w *World) scriptCost(stack []*Hypervisor, level int, s Script, sink chargeSink) sim.Cycles {
	c := &w.Costs
	var cost sim.Cycles

	if level == 0 {
		cost = sim.Cycles(s.VMAccesses)*c.NativeVMAccess + sim.Cycles(s.PrivOps)*c.PrivEmulWork + s.SoftWork
		if s.Resume {
			cost += c.ResumeMergeWork + c.HwEntry
		}
		sink.chargeLevel(0, cost)
		return cost
	}

	if s.VMAccesses > 0 {
		if level == 1 && w.Host.Caps.Has(vmx.CapVMCSShadowing) {
			shadow := sim.Cycles(s.VMAccesses) * c.ShadowVMAccess
			cost += shadow
			sink.chargeLevel(level, shadow)
		} else {
			for i := 0; i < s.VMAccesses; i++ {
				cost += w.privOpCost(stack, level, vmx.ExitVMREAD, sink)
			}
		}
	}
	for i := 0; i < s.PrivOps; i++ {
		cost += w.privOpCost(stack, level, vmx.ExitVMPTRLD, sink)
	}
	cost += s.SoftWork
	sink.chargeLevel(level, s.SoftWork)
	if s.Resume {
		cost += w.privOpCost(stack, level, vmx.ExitVMRESUME, sink)
	}
	return cost
}

// privOpCost charges one privileged virtualization instruction executed by
// the hypervisor at the given level. Level-1 instructions are emulated
// directly by the host; deeper ones are forwarded to the level below, whose
// emulation path is itself a script full of privileged instructions.
func (w *World) privOpCost(stack []*Hypervisor, level int, reason vmx.ExitReason, sink chargeSink) sim.Cycles {
	c := &w.Costs
	sink.hardwareExit(reason)
	sink.traceEvent(reason, level, level-1, 1)
	cost := c.HwExit

	if level == 1 {
		sink.handledExit(reason, 0)
		work := c.PrivEmulWork
		if reason == vmx.ExitVMRESUME || reason == vmx.ExitVMLAUNCH {
			work += c.ResumeMergeWork
		}
		cost += c.HostDispatch + work + c.HwEntry
		sink.chargeLevel(0, cost)
		return cost
	}

	// Forward the emulation to the hypervisor one level below.
	handler := level - 1
	sink.handledExit(reason, handler)
	cost += c.ReflectWork + c.HwEntry
	sink.chargeLevel(0, c.HwExit+c.ReflectWork+c.HwEntry)
	for j := 1; j < handler; j++ {
		cost += w.scriptCost(stack, j, stack[j].Personality.ReflectScript(), sink)
	}
	cost += w.scriptCost(stack, handler, stack[handler].Personality.EmulScript(reason), sink)
	return cost
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

// walk runs one kind's charge tree into the sink and returns its total cost.
// Only planForward reads reason; every other kind fixes its own. The wake
// ladder reads no stack, so stack may be nil for it.
func (w *World) walk(stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int, sink chargeSink) sim.Cycles {
	switch kind {
	case planForward:
		return w.forwardCost(stack, reason, level, sink)
	case planInject:
		return w.guestPathCost(stack, vmx.ExitExternalInterrupt, level, stack[level].Personality.InjectScript(), sink)
	case planCascade:
		return w.rxCascadeCost(stack, level, sink)
	case planWake:
		return w.wakeLadderCost(level, sink)
	case planSwitch:
		return w.scriptCost(stack, level, switchScript(), sink)
	}
	return 0
}

// reasonCount is one aggregated hardware-exit delta of a plan.
type reasonCount struct {
	reason vmx.ExitReason
	n      uint64
}

// handledCount is one aggregated handled-exit delta of a plan.
type handledCount struct {
	reason vmx.ExitReason
	level  int
	n      uint64
}

// eventRun is one run-length-encoded span of the plan's trace timeline.
type eventRun struct {
	reason        vmx.ExitReason
	from, handler int
	n             int
}

// plan is the compiled, immutable replay form of one charge tree. Replaying
// it applies exactly the stats deltas and trace events the tree would emit,
// in O(levels + deltas + runs) with zero allocations, and returns the
// identical total cost.
type plan struct {
	// cost is the total cycles of the tree.
	cost sim.Cycles
	// levels holds the per-level ChargeLevel deltas, pre-clamped to the
	// stats tables' level range.
	levels [trace.MaxLevels]sim.Cycles
	// hw and handled are the aggregated exit-count deltas, ordered by
	// (reason index) and (reason index, level) for deterministic replay.
	hw      []reasonCount
	handled []handledCount
	// events is the ordered, run-length-encoded trace timeline.
	events []eventRun
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

// planBuilder is the compiling chargeSink: it aggregates a tree's emissions
// into a plan. Dense scratch tables keep aggregation O(1) per emission;
// finalize compacts them into the plan's sparse, index-ordered delta lists.
type planBuilder struct {
	plan    plan
	hw      [vmx.NumReasonIndexes]uint64
	handled [vmx.NumReasonIndexes][trace.MaxLevels]uint64
}

// chargeLevel implements chargeSink, clamping exactly as the stats tables
// do so a replayed charge lands on the same row a live charge would.
func (b *planBuilder) chargeLevel(level int, c sim.Cycles) {
	b.plan.levels[trace.ClampLevel(level)] += c
}

// hardwareExit implements chargeSink.
func (b *planBuilder) hardwareExit(r vmx.ExitReason) { b.hw[r.Index()]++ }

// handledExit implements chargeSink, with RecordHandledExit's clamping.
func (b *planBuilder) handledExit(r vmx.ExitReason, level int) {
	b.handled[r.Index()][trace.ClampLevel(level)]++
}

// traceEvent implements chargeSink: consecutive identical events collapse
// into one run, preserving the exact event order of the tree.
func (b *planBuilder) traceEvent(r vmx.ExitReason, from, handler, n int) {
	evs := b.plan.events
	if last := len(evs) - 1; last >= 0 &&
		evs[last].reason == r && evs[last].from == from && evs[last].handler == handler {
		evs[last].n += n
		return
	}
	// The builder runs only on the cold compile path (the compiler is
	// //nvlint:cold); it reaches the hot call graph solely through CHA over
	// the chargeSink interface.
	//nvlint:ignore hotalloc cold compile path; hot-reachable only via CHA over chargeSink
	b.plan.events = append(evs, eventRun{reason: r, from: from, handler: handler, n: n})
}

// finalize compacts the dense scratch tables into the plan's sparse delta
// lists, in fixed (reason index, level) order for deterministic replay.
func (b *planBuilder) finalize() *plan {
	for i := range b.hw {
		if b.hw[i] > 0 {
			b.plan.hw = append(b.plan.hw, reasonCount{reason: vmx.ExitReason(i), n: b.hw[i]})
		}
	}
	for i := range b.handled {
		for l := 0; l < trace.MaxLevels; l++ {
			if b.handled[i][l] > 0 {
				b.plan.handled = append(b.plan.handled, handledCount{reason: vmx.ExitReason(i), level: l, n: b.handled[i][l]})
			}
		}
	}
	return &b.plan
}

// compilePlan walks one charge tree with the compiling sink and flattens it
// into an immutable plan, pinning the personalities of the stack up to the
// level. This is the cold path: it runs once per key, stack shape and
// generation triple, and its cost is amortized across every replay.
//
//nvlint:cold
func (w *World) compilePlan(stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int) *plan {
	b := &planBuilder{}
	b.plan.cost = w.walk(stack, kind, reason, level, b)
	b.plan.pinned = min(level, len(stack)-1)
	for k := 1; k <= b.plan.pinned; k++ {
		b.plan.pers[k] = stack[k].Personality
	}
	if kind == planForward {
		w.Plan.Compiles++
	} else {
		w.Plan.DeliveryCompiles++
	}
	return b.finalize()
}

// applyPlan applies a compiled plan's deltas — the aggregated per-level
// charges, the exit counts, and the run-length-encoded trace timeline — and
// returns the plan's total cost, byte-identical to walking the tree live.
func (w *World) applyPlan(p *plan) sim.Cycles {
	stats := w.Host.Machine.Stats
	for l := range p.levels {
		if c := p.levels[l]; c != 0 {
			stats.ChargeLevel(l, c)
		}
	}
	for _, d := range p.hw {
		stats.AddHardwareExits(d.reason, d.n)
	}
	for _, d := range p.handled {
		stats.AddHandledExits(d.reason, d.level, d.n)
	}
	if w.Tracer != nil {
		for _, e := range p.events {
			w.Tracer.RecordRun(e.reason, e.from, e.handler, e.n)
		}
	}
	return p.cost
}

// planTable is the World's compiled-plan cache, valid for one (topology,
// cost-model, caps) generation triple: one slot per (row, level), where
// planRow folds the kind and the forwarded exit's reason into the row.
type planTable struct {
	topoGen, costGen, capsGen uint64
	slots                     [numPlanRows][trace.MaxLevels]*plan
}

// validPlans returns the World's plan table, lazily created, flushing every
// slot whenever an invalidation generation moved: topology (Machine.TopoGen
// — VM creation, hypervisor installation, repinning), cost model
// (Machine.CostGen — World.SetCosts), or capabilities (Machine.CapsGen —
// World.SetHostCaps, DVH enablement). The stale check is O(1); the
// steady-state path allocates nothing.
func (w *World) validPlans() *planTable {
	m := w.Host.Machine
	t := w.plans
	if t == nil {
		//nvlint:ignore hotalloc lazy per-World plan-table init, amortized across all replays
		t = &planTable{topoGen: m.TopoGen, costGen: m.CostGen, capsGen: m.CapsGen}
		w.plans = t
	} else if t.topoGen != m.TopoGen || t.costGen != m.CostGen || t.capsGen != m.CapsGen {
		t.slots = [numPlanRows][trace.MaxLevels]*plan{}
		t.topoGen, t.costGen, t.capsGen = m.TopoGen, m.CostGen, m.CapsGen
		w.Plan.Invalidations++
	}
	return t
}

// charge runs one charge tree and returns its cost. With the cache on, it
// replays the key's compiled plan, compiling on a miss, after a flush, or
// when a pinned personality differs; with NVSIM_NOPLANCACHE, or at a level
// the accounting tables cannot index, it walks the tree live. This is the
// single live-or-replay decision for every cached path. Only planForward
// reads reason; callers pass 0 for the other kinds.
func (w *World) charge(stack []*Hypervisor, kind planKind, reason vmx.ExitReason, level int) sim.Cycles {
	if w.planCacheOff || level < 0 || level >= trace.MaxLevels {
		return w.walk(stack, kind, reason, level, w)
	}
	slot := &w.validPlans().slots[planRow(kind, reason)][level]
	if *slot == nil || !(*slot).matchesStack(stack) {
		*slot = w.compilePlan(stack, kind, reason, level)
	}
	if kind == planForward {
		w.Plan.Replays++
	} else {
		w.Plan.DeliveryReplays++
	}
	return w.applyPlan(*slot)
}
