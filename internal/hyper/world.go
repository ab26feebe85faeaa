package hyper

import (
	"os"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// NoPlanCacheEnv disables the plan replay cache (plan.go) when set to
// anything but "" or "0": the escape hatch (and A/B lever) that forces every
// forwarded exit and every delivery path back through the live recursion.
// Plans are compiled from the same recursions the live paths run, so results
// are byte-identical either way; the env var exists so that claim stays
// testable, not because the modes may legitimately differ.
const NoPlanCacheEnv = "NVSIM_NOPLANCACHE"

// PlanCacheStats counts plan-cache activity. Deliberately kept on the World
// rather than in trace.Stats: cache meta-traffic depends on whether the cache
// is on at all, and must not leak into experiment output (which is
// byte-identical across cache modes).
type PlanCacheStats struct {
	// Compiles counts cold walks of the forwarding recursion.
	Compiles uint64
	// Replays counts forwarded exits served from a compiled plan.
	Replays uint64
	// DeliveryCompiles counts cold walks of a delivery-path charge tree
	// (interrupt injection, RX cascade, wake ladder, scheduler switch).
	DeliveryCompiles uint64
	// DeliveryReplays counts delivery paths served from a compiled plan.
	DeliveryReplays uint64
	// Invalidations counts plan-table flushes caused by a moved plan
	// generation (a new cost model or capability word). Forward and delivery
	// plans share the World's one table, so a flush invalidates both at once.
	Invalidations uint64
}

// World binds a host hypervisor, its cost model and the registered
// direct-handling interceptors into the execution engine guest operations
// run through, and owns the simulated timeline the host timers it arms fire
// on (Now, RunUntil). The engine itself is the exit-transaction pipeline
// (pipeline.go): dispatch stages live in dispatch.go, interrupt delivery in
// irq.go, timer plumbing and the timeline in timer.go and virtio backends in
// backend.go.
//
// Accounting discipline: the stats sink (Host.Machine.Stats) is the one
// record of a cycle. Every charge lands there once, at the level that spent
// it, and nothing below the five public boundaries returns cycles: each
// boundary returns the change in the sink's total across it, so a caller's
// cost is what was recorded by construction.
//
// Only Execute can fail. A VM's hypervisor stack is fixed when it is
// created, so the four delivery boundaries return their cost alone, and
// RunUntil, which delivers the timers it fires, returns nothing.
type World struct {
	Host  *Hypervisor
	Costs CostModel
	// interceptors is the registered direct-handling chain, sorted by
	// (priority, name); consulted on every exit from a VM at level >= 2.
	// See RegisterInterceptor.
	interceptors []Interceptor
	// Tracer, when non-nil, records every hardware exit for timeline
	// inspection (cmd/nvtrace). A nil recorder costs nothing.
	Tracer *trace.Recorder
	// Stages, when non-nil, receives per-stage cycle attribution for every
	// settled outermost transaction (cmd/nvtrace -stages, the experiment
	// stage tables). A nil sink costs one branch per stage entered. Stage
	// shares are read off the stats sink's total, which replay-cached and
	// live charge trees move alike, so attaching a sink never perturbs, and
	// is never perturbed by, the plan-cache mode. Attach or detach it
	// between outermost transactions: one that opens without a sink is not
	// observed.
	Stages *StageStats
	// txDepth is the current boundary nesting depth, which transact raises
	// around each boundary's body: 0 after the decrement means the settling
	// transaction is outermost and is the one StageStats observes.
	txDepth int
	// Check, when non-nil, is told of every DVH virtual-timer arm for
	// invariant validation (internal/check). A nil checker costs one branch
	// per arm.
	Check InvariantChecker
	// timeline queues the host hrtimers armed for this World's vCPUs, each
	// event carrying its vCPU (armHostTimer); RunUntil fires them.
	timeline sim.Engine[*VCPU]
	// planCacheOff disables plan replay (see NoPlanCacheEnv and
	// SetPlanCache); the default is cache on. Read by charge and PlanCache.
	planCacheOff bool
	// plans is the World's compiled-plan table (plan.go), lazily allocated
	// on the first cached charge.
	plans *planTable
	// scratch is the working memory compiles reuse (plan.go), lazily
	// allocated on the first compile.
	scratch *compileScratch
	// Plan counts plan-cache activity (compiles, replays, invalidations)
	// for tests and diagnostics.
	Plan PlanCacheStats
}

// NewWorld wraps a host hypervisor with the default cost model. The plan
// replay cache is on unless NVSIM_NOPLANCACHE says otherwise
// (PlanCacheDefault).
func NewWorld(host *Hypervisor) *World {
	return &World{Host: host, Costs: DefaultCosts(), planCacheOff: !PlanCacheDefault()}
}

// PlanCacheDefault reports whether a new World replays compiled plans: true
// unless NVSIM_NOPLANCACHE is set (same convention as NVSIM_PARALLEL: "" and
// "0" mean default behavior). Callers that key results by plan-cache mode
// read it here, so they agree with NewWorld.
func PlanCacheDefault() bool {
	v := os.Getenv(NoPlanCacheEnv)
	return v == "" || v == "0"
}

// SetPlanCache toggles the plan replay cache, overriding the NVSIM_NOPLANCACHE default. Intended for A/B tests; both
// modes produce byte-identical simulation results.
func (w *World) SetPlanCache(on bool) { w.planCacheOff = !on }

// PlanCache reports whether the world replays compiled plans.
func (w *World) PlanCache() bool { return !w.planCacheOff }

// SetCosts replaces the world's cost model and bumps the machine's plan
// generation so compiled plans (which bake cycle costs in) are recompiled.
// Mutating w.Costs fields directly is reserved for setup before the first
// forwarded exit; any later recalibration must go through here.
func (w *World) SetCosts(c CostModel) {
	w.Costs = c
	w.Host.Machine.PlanGen++
}

// SetHostCaps replaces the host hypervisor's capability word and bumps the
// machine's plan generation. Host capabilities (VMCS shadowing in
// particular) shape the forwarding recursion, so any post-setup change must
// invalidate compiled plans.
func (w *World) SetHostCaps(caps vmx.Caps) {
	w.Host.Caps = caps
	w.Host.Machine.PlanGen++
}
