package hyper

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
)

// This file is the exit-transaction pipeline: every public World entry point
// is one call to transact, which opens an ExitContext, flows it through the
// ordered stages, and settles it. The paper's Figure 1 flow — an exit
// enters at L0 and is either handled directly (1b) or forwarded up the
// hypervisor stack (1a) — is modeled as explicit stages so that boundary
// bookkeeping (stage attribution, the final cost returned to the caller)
// happens in exactly one place instead of being replicated per entry point,
// and so that direct-handling backends (DVH, enlightenments) plug into one
// interceptor chain instead of a hard-coded hook.

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
	// cost is handed back to the caller.
	StageSettle
)

// NumStages is the number of pipeline stages: the length of every
// per-stage ledger and table. It is no stage; nvlint's exhaustive rule
// skips it as a count sentinel.
const NumStages = StageSettle + 1

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
// on transact's stack frame — the steady-state exit path stays
// allocation-free — and holds the transaction's identity (operation, exit
// reason, nesting level) and its routing decision. Its cost is not kept
// here: every cycle lands once, in the stats sink, and transact reads the
// boundary's cost off the sink's total. Only a transaction a StageStats will
// observe also splits that total across the stages it runs, in stageSpans
// that transact declares for it alone and hands to dispatch, so an
// unobserved transaction zeroes and carries none.
//
// Nested transactions stack naturally: a forwarded exit whose owner re-enters
// Execute (a guest hypervisor arming its own timer, a cascaded virtio kick)
// opens a fresh ExitContext.
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
	// Dev is the device whose doorbell an OpDevNotify wrote, resolved once
	// by StageFastPath, which fails an unmapped doorbell; nil otherwise.
	Dev *AssignedDevice
}

// stageSpans splits an observed transaction's cost across its stages. A nil
// *stageSpans is an unobserved transaction's, and enter on it does nothing.
type stageSpans struct {
	// stage is the stage the transaction is in, and mark the stats sink's
	// total when it entered it.
	stage Stage
	mark  sim.Cycles
	// ledger holds the cycles charged while the transaction was in each
	// stage, nested transactions' included.
	ledger [NumStages]sim.Cycles
}

// enter moves an observed transaction into stage s: the cycles the stats
// sink gained since the current stage began are that stage's.
func (sp *stageSpans) enter(s Stage, stats *trace.Stats) {
	if sp != nil {
		t := stats.TotalCycles()
		sp.ledger[sp.stage] += t - sp.mark
		sp.stage, sp.mark = s, t
	}
}

// transact opens, runs and settles one exit transaction. Every public World
// entry point is a single call to it, so each boundary opens and settles its
// transaction exactly once on every path. In order, transact
//
//   - fills the ExitContext in place on its own stack frame and reads the
//     stats sink's total;
//   - raises the world's transaction depth;
//   - runs the boundary's body: Execute's dispatch, which enters each stage
//     it runs, or one delivery body, which is one StageDeliver span;
//   - lowers the depth, whatever dispatch returned: its error is the only
//     one a body returns, since a delivery cannot fail;
//   - hands an outermost transaction that opened with a StageStats attached
//     to the one attached when it settles;
//   - returns the cost, the change in the sink's total, or zero on error.
//
// Below the boundaries nothing returns cycles: each charge lands in the
// stats sink once, so the returned cost is the charged cost by construction.
// Failed operations abandon their partial charges, and no sink observes
// them. op is the zero Op and dev is nil for the boundaries that take none.
func (w *World) transact(b Boundary, v *VCPU, op Op, dev *AssignedDevice) (sim.Cycles, error) {
	var tx ExitContext
	tx.V, tx.Op, tx.Boundary, tx.Level, tx.Owner = v, op, b, v.VM.Level, ownerUnresolved
	start := w.Host.Machine.Stats.TotalCycles()
	var sp *stageSpans
	if w.txDepth == 0 && w.Stages != nil {
		// Execute starts at StageFastPath, the zero Stage, and dispatch
		// moves it on; a delivery body runs wholly at StageDeliver.
		spans := stageSpans{mark: start}
		if b != BoundaryExecute {
			spans.stage = StageDeliver
		}
		sp = &spans
	}
	w.txDepth++

	var err error
	switch b {
	case BoundaryExecute:
		tx.Reason = reasonFor(op)
		err = w.dispatch(&tx, sp)
	case BoundaryTimerIRQ:
		w.deliverTimerIRQ(v)
	case BoundaryDeviceIRQ:
		w.deliverDeviceIRQ(dev, v)
	case BoundaryDeviceRX:
		w.deviceRX(dev, v)
	case BoundaryWake:
		w.wakeIfIdle(v)
	}

	// The settle step reads its operands back from the context and the
	// world instead of holding them across the body: every value live
	// across that call is spilled and reloaded on each transaction, and a
	// smaller set measurably speeds up BenchmarkExecute.
	w.txDepth--
	if err != nil {
		return 0, err
	}
	stats := w.Host.Machine.Stats
	if sp != nil && w.Stages != nil {
		sp.enter(StageSettle, stats)
		w.Stages.observe(tx.Boundary, tx.Reason, &sp.ledger)
	}
	return stats.TotalCycles() - start, nil
}

// Interceptor is a direct-handling backend registered on a World: at
// StageIntercept the host consults the chain, in deterministic priority
// order, before forwarding a nested VM's exit up the hypervisor stack. DVH
// (package core) is one interceptor; hypervisor-specific enlightenments
// (packages hyperv, xen) are others — a world can stack several without the
// dispatch code knowing any of them.
//
// TryHandle performs the emulation effects and charges its own work to the
// stats sink; the intercept stage adds the fixed dispatch and entry costs of
// a claimed exit. A TryHandle that declines (false, nil) must leave engine
// state as it found it, because the exit is then forwarded to the guest
// hypervisor unchanged (paper Figure 1a);
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
	// whether it handled it directly, its work charged to the stats sink.
	TryHandle(w *World, v *VCPU, op Op) (handled bool, err error)
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
	if tx.Level < 2 || len(w.interceptors) == 0 {
		return false, nil
	}
	c := &w.Costs
	stats := w.Host.Machine.Stats
	for _, it := range w.interceptors {
		handled, err := it.TryHandle(w, tx.V, tx.Op)
		if err != nil {
			return false, err
		}
		if handled {
			w.exit(tx.Reason, tx.Level, 0)
			stats.ChargeLevel(0, c.HostDispatch+c.HwEntry)
			return true, nil
		}
		stats.ChargeLevel(0, c.DVHCheckWork)
	}
	return false, nil
}
