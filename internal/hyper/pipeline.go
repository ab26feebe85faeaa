package hyper

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// This file is the exit-transaction pipeline: every public World entry point
// builds an ExitContext, opens it with begin, flows it through the ordered
// stages, and closes it with settle. The paper's Figure 1 flow — an exit
// enters at L0 and is either handled directly (1b) or forwarded up the
// hypervisor stack (1a) — is modeled as explicit stages so that boundary
// bookkeeping (invariant-checker bracketing, the final cost returned to the
// caller) happens in exactly one place instead of being replicated per entry
// point, and so that direct-handling backends (DVH, enlightenments) plug into
// one interceptor chain instead of a hard-coded hook.

// Stage identifies the phase an exit transaction is in. A transaction's
// stages are ordered — fast-path, intercept, route, emulate or forward,
// deliver, settle — but not every transaction visits every stage: a TLB hit
// ends at StageFastPath, a DVH-claimed exit at StageIntercept, and interrupt
// deliveries enter directly at StageDeliver.
type Stage uint8

const (
	// StageFastPath covers operations that complete without a hardware exit:
	// TLB hits, posted doorbell writes to passthrough devices, APICv-absorbed
	// EOIs.
	StageFastPath Stage = iota
	// StageIntercept consults the registered interceptor chain: the host may
	// claim a nested VM's exit and handle it directly (paper Figure 1b).
	StageIntercept
	// StageRoute resolves which hypervisor level owns the exit.
	StageRoute
	// StageEmulate is host-owned handling: the L0 hypervisor emulates the
	// operation itself.
	StageEmulate
	// StageForward reflects the exit up to the owning guest hypervisor,
	// recursively emulating every privileged instruction its handler runs
	// (paper Figure 1a — the exit-multiplication engine).
	StageForward
	// StageDeliver is the interrupt-delivery side: timer and device IRQ
	// injection, device receive processing, idle wakes.
	StageDeliver
	// StageSettle closes the transaction: the single point where the final
	// cost is handed back to the caller and the invariant checker observes
	// the completed boundary.
	StageSettle
)

// stageCount is the number of pipeline stages (for per-stage ledgers).
const stageCount = int(StageSettle) + 1

// The trace package sizes StageStats' fixed tables by mirrored constants so
// the observability layer stays allocation-free without importing hyper
// (trace is below hyper in the import graph). These assertions fail to
// compile if either enum grows without the mirror moving; a test pins the
// display names too.
var (
	_ [trace.NumStages]struct{}     = [stageCount]struct{}{}
	_ [trace.NumBoundaries]struct{} = [boundaryCount]struct{}{}
)

func (s Stage) String() string {
	switch s {
	case StageFastPath:
		return "fast-path"
	case StageIntercept:
		return "intercept"
	case StageRoute:
		return "route"
	case StageEmulate:
		return "emulate"
	case StageForward:
		return "forward"
	case StageDeliver:
		return "deliver"
	case StageSettle:
		return "settle"
	}
	return "Stage(?)"
}

// ownerUnresolved is ExitContext.Owner before StageRoute has run.
const ownerUnresolved = -1

// ExitContext is one exit transaction flowing through the pipeline. It lives
// on the entry point's stack frame — the steady-state exit path stays
// allocation-free — and accumulates the transaction's identity (operation,
// exit reason, nesting level), its routing decision, and a per-stage cost
// ledger whose total is the cost returned to the caller.
//
// Nested transactions stack naturally: a forwarded exit whose owner re-enters
// Execute (a guest hypervisor arming its own timer, a cascaded virtio kick)
// opens a fresh ExitContext, and the invariant checker's frames stack with
// them.
type ExitContext struct {
	// V is the vCPU the transaction runs on (the exiting vCPU for Execute,
	// the delivery target for the IRQ boundaries).
	V *VCPU
	// Op is the guest operation; the zero Op for pure delivery boundaries.
	Op Op
	// Boundary names the public entry point that opened the transaction.
	Boundary Boundary
	// Reason is the VM-exit reason for Execute transactions; delivery
	// transactions record their injection reasons per injected charge.
	Reason vmx.ExitReason
	// Level is V's virtualization level at entry.
	Level int
	// Owner is the hypervisor level routed to handle the exit;
	// ownerUnresolved until StageRoute, 0 when the host claims it.
	Owner int
	// Stage is the stage the transaction is currently in.
	Stage Stage
	// Cost is the accumulated cost ledger total — exactly the cycles the
	// transaction has charged on behalf of its caller so far, and the value
	// settle returns.
	Cost sim.Cycles

	// ledger attributes the accumulated cost to the stage that added it.
	ledger [stageCount]sim.Cycles
	// token and checked carry the invariant checker's frame across the
	// transaction, from begin to settle.
	token   int
	checked bool
}

// add charges cycles to the transaction on behalf of a stage. Stages must
// pair every add with the matching stats-sink charges so the settle-point
// invariant — returned cost equals charged cost — holds.
func (tx *ExitContext) add(s Stage, c sim.Cycles) {
	tx.Cost += c
	tx.ledger[s] += c
}

// newTx fills a zero ExitContext, declared by the entry point, for one
// boundary entry. Filling in place through the pointer spares every
// boundary a copy of the whole context out of a returned value.
func (w *World) newTx(tx *ExitContext, v *VCPU, op Op, b Boundary) {
	tx.V, tx.Op, tx.Boundary, tx.Owner = v, op, b, ownerUnresolved
	if v != nil {
		tx.Level = v.VM.Level
	}
	if b == BoundaryExecute {
		tx.Reason = reasonFor(op)
	}
}

// begin opens the transaction. This is the only place a boundary frame is
// opened with the invariant checker: entry points never bracket themselves.
// The world's transaction depth tracks how deeply boundaries are nested so
// settle can tell an outermost transaction (observed by StageStats) from a
// nested one (whose cost the enclosing ledger already holds).
func (w *World) begin(tx *ExitContext) {
	w.txDepth++
	if w.Check == nil {
		return
	}
	tx.checked = true
	tx.token = w.Check.Begin(w, tx.V, tx.Boundary, tx.Op)
}

// settle closes the transaction and is the single point where a boundary's
// final cost is decided: the checker observes the completed frame exactly
// once, and the caller receives the ledger total (or zero on error — failed
// operations abandon their partial charges, which the checker's
// cycle-conservation frame excuses only on the error path).
func (w *World) settle(tx *ExitContext, err error) (sim.Cycles, error) {
	tx.Stage = StageSettle
	w.txDepth--
	cost := tx.Cost
	if err != nil {
		cost = 0
	}
	if tx.checked {
		w.Check.End(tx.token, w, tx.V, tx.Boundary, tx.Op, cost, err)
	}
	if err != nil {
		return 0, err
	}
	if w.txDepth == 0 && w.Stages != nil {
		w.observeStages(tx)
	}
	return cost, nil
}

// observeStages walks a settled outermost transaction's cost ledger into the
// attached StageStats — the pipeline's only observation point for per-stage
// latency attribution. Nested transactions are not observed: their costs are
// already folded into the enclosing ledger at the stage that invoked them
// (an IPI's wake lands in the outer StageForward lump, a cascade kick in the
// outer StageEmulate/StageForward), so every settled cycle is attributed
// exactly once. Only the Execute boundary carries an exit reason; deliveries
// pass reason < 0 and appear in the boundary table alone. Allocation-free:
// the stack-resident ledger goes to the fixed-size tables in one call.
func (w *World) observeStages(tx *ExitContext) {
	reason := -1
	if tx.Boundary == BoundaryExecute {
		reason = tx.Reason.Index()
	}
	w.Stages.ObserveLedger(int(tx.Boundary), reason, &tx.ledger)
}

// Interceptor is a direct-handling backend registered on a World: at
// StageIntercept the host consults the chain, in deterministic priority
// order, before forwarding a nested VM's exit up the hypervisor stack. DVH
// (package core) is one interceptor; hypervisor-specific enlightenments
// (packages hyperv, xen) are others — a world can stack several without the
// dispatch code knowing any of them.
//
// TryHandle performs the emulation effects, charges its own work to the
// stats sink, and returns that work so the intercept stage can wrap it in
// the fixed exit/dispatch/entry costs. A TryHandle that declines (false,
// nil) must leave engine state as it found it, because the exit is then
// forwarded to the guest hypervisor unchanged (paper Figure 1a);
// TestDeclinedInterceptorsLeaveStateUnchanged (internal/check) holds every
// implementation to that. Op is passed by value: TryHandle never mutates
// it, and a pointer would force every Execute call's op to escape to the
// heap through the interface boundary, which the AllocsPerRun tests
// (alloc_test.go, plan_test.go) report. nvlint's hotalloc rule walks every
// implementation.
type Interceptor interface {
	// InterceptorInfo returns the interceptor's stable name and its chain
	// priority. Lower priorities are consulted first; ties order by name.
	// Both must be constant for a given interceptor: the chain order is part
	// of the simulation's determinism contract, and the decline test pins
	// each pair to its package's declared one.
	InterceptorInfo() (name string, priority int)
	// TryHandle inspects an exit from a nested VM (level >= 2) and reports
	// whether it handled it directly, with the work charged.
	TryHandle(w *World, v *VCPU, op Op) (handled bool, work sim.Cycles, err error)
}

// RegisterInterceptor adds a direct-handling backend to the world's chain.
// The chain is kept sorted by (priority, name) — registration order never
// influences dispatch, so runs are reproducible no matter how a stack was
// assembled. Duplicate names are rejected: ties order by name, so two
// interceptors sharing one would make chain order registration-dependent,
// silently breaking the determinism contract. Registration is a setup-time
// operation, not part of the allocation-free exit path.
func (w *World) RegisterInterceptor(i Interceptor) error {
	name, _ := i.InterceptorInfo()
	for _, have := range w.interceptors {
		if hn, _ := have.InterceptorInfo(); hn == name {
			return fmt.Errorf("hyper: interceptor %q already registered: duplicate names would make chain order registration-dependent", name)
		}
	}
	w.interceptors = append(w.interceptors, i)
	sort.SliceStable(w.interceptors, func(a, b int) bool {
		na, pa := w.interceptors[a].InterceptorInfo()
		nb, pb := w.interceptors[b].InterceptorInfo()
		if pa != pb {
			return pa < pb
		}
		return na < nb
	})
	return nil
}

// Interceptors returns the registered chain in consultation order. The
// returned slice is the world's own: callers must not mutate it.
func (w *World) Interceptors() []Interceptor { return w.interceptors }

// stageIntercept consults the interceptor chain for exits from nested VMs.
// The first interceptor to claim the exit concludes the transaction at the
// host (paper Figure 1b); each interceptor that inspects but declines bills
// its check work to the host before the exit moves on — the bookkeeping the
// paper's Table 3 shows as DVH's slightly costlier forwarded hypercall.
func (w *World) stageIntercept(tx *ExitContext) (bool, error) {
	tx.Stage = StageIntercept
	if tx.Level < 2 || len(w.interceptors) == 0 {
		return false, nil
	}
	c := &w.Costs
	stats := w.Host.Machine.Stats
	for _, it := range w.interceptors {
		handled, work, err := it.TryHandle(w, tx.V, tx.Op)
		if err != nil {
			return false, err
		}
		if handled {
			stats.RecordHandledExit(tx.Reason, 0)
			w.Tracer.Record(tx.Reason, tx.Level, 0)
			stats.ChargeLevel(0, c.HostDispatch+c.HwEntry)
			tx.add(StageIntercept, c.HostDispatch+work+c.HwEntry)
			return true, nil
		}
		tx.add(StageIntercept, c.DVHCheckWork)
		stats.ChargeLevel(0, c.DVHCheckWork)
	}
	return false, nil
}
