// Package hyper_test holds the settle tests that need experiment stacks: the
// boundary settle table and the metamorphic settle-ledger tests over the full
// experiment matrix. The external test package can import experiment (which
// imports hyper) without a cycle, while still reaching the ExecuteLedger hook
// exported by export_test.go.
package hyper_test

import (
	"fmt"
	"testing"

	"repro/internal/apic"
	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/workload"
)

// enter calls boundary b once on v, with op as Execute's operation and the
// stack's net device as the device boundaries' device. Only Execute can
// fail; a delivery returns a nil error.
func enter(st *experiment.Stack, b hyper.Boundary, v *hyper.VCPU, op hyper.Op) (sim.Cycles, error) {
	switch b {
	case hyper.BoundaryExecute:
		return st.World.Execute(v, op)
	case hyper.BoundaryTimerIRQ:
		return st.World.DeliverTimerIRQ(v), nil
	case hyper.BoundaryDeviceIRQ:
		return st.World.DeliverDeviceIRQ(st.Net, v), nil
	case hyper.BoundaryDeviceRX:
		return st.World.DeviceRX(st.Net, v), nil
	case hyper.BoundaryWake:
		return st.World.WakeIfIdle(v), nil
	}
	return 0, fmt.Errorf("no boundary %v", b)
}

// TestBoundarySettlePaths drives each of the five public boundaries once on
// its success path and Execute, the one that can fail, once on an error
// path, and holds every call to the settle contract: a failed call returns
// zero cost; an attached StageStats sees only successes, each once, at its
// boundary and with the cost it returned; and the transaction depth returns
// to zero, so the next outermost transaction is observed. The stack is
// nested DVH-VP, whose device interrupts are not posted, so the delivery
// rows reach the guest hypervisor's injection path.
func TestBoundarySettlePaths(t *testing.T) {
	halt := func(st *experiment.Stack, v *hyper.VCPU) {
		if _, err := st.World.Execute(v, hyper.Halt()); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		b     hyper.Boundary
		op    hyper.Op // Execute's operation
		setup func(*experiment.Stack, *hyper.VCPU)
		fail  string // names an error row; "" for a success row
	}{
		{b: hyper.BoundaryExecute, op: hyper.Hypercall()},
		{b: hyper.BoundaryExecute, op: hyper.DevNotify(0), fail: "unmapped-doorbell"},
		{b: hyper.BoundaryTimerIRQ},
		{b: hyper.BoundaryWake, setup: halt},
		{b: hyper.BoundaryDeviceIRQ},
		{b: hyper.BoundaryDeviceRX},
	}
	for _, r := range rows {
		name, fail := r.b.String(), r.fail != ""
		if fail {
			name += "/" + r.fail
		}
		t.Run(name, func(t *testing.T) {
			st, err := experiment.Build(experiment.Spec{Depth: 2, IO: experiment.IODVHVP})
			if err != nil {
				t.Fatal(err)
			}
			if st.Net.PostedDelivery {
				t.Fatal("DVH-VP net device posts its interrupts; the delivery rows would skip the guest hypervisor")
			}
			v := st.Target.VCPUs[0]
			if r.setup != nil {
				r.setup(st, v)
			}
			ss := &hyper.StageStats{}
			st.World.Stages = ss

			cost, err := enter(st, r.b, v, r.op)
			if fail != (err != nil) {
				t.Fatalf("returned (%v, %v), want failure=%v", cost, err, fail)
			}
			if fail && cost != 0 {
				t.Errorf("failed call returned cost %v, want 0", cost)
			}
			switch {
			case fail && ss.TotalSettled() != 0:
				t.Errorf("sink observed %d transactions of a failed call, want 0", ss.TotalSettled())
			case !fail && (ss.Settled[r.b] != 1 || ss.TotalSettled() != 1 || ss.BoundaryTotal(r.b) != cost):
				t.Errorf("sink observed %d %v transactions (%d in all) of %v cycles, want 1 of %v",
					ss.Settled[r.b], r.b, ss.TotalSettled(), ss.BoundaryTotal(r.b), cost)
			}

			// The next call is outermost only if the depth is back at zero.
			// An L1 hypercall needs no guest hypervisor, so it runs after
			// the error rows too.
			before := ss.Settled[hyper.BoundaryExecute]
			if _, err := st.World.Execute(v.Parent, hyper.Hypercall()); err != nil {
				t.Fatal(err)
			}
			if ss.Settled[hyper.BoundaryExecute] != before+1 {
				t.Errorf("the next outermost transaction was not observed: the depth did not return to zero")
			}
		})
	}
}

// matrixSpecs are the Table 3 / Figure 7–10 configurations: depths 1–3,
// DVH off and (where nesting makes it meaningful) on.
func matrixSpecs() []experiment.Spec {
	return []experiment.Spec{
		{Depth: 1, IO: experiment.IOParavirt},
		{Depth: 2, IO: experiment.IOParavirt},
		{Depth: 2, IO: experiment.IODVH},
		{Depth: 3, IO: experiment.IOParavirt},
		{Depth: 3, IO: experiment.IODVH},
	}
}

// matrixOps is the operation mix the matrix's workloads issue through
// Execute: the four Table 1 microbenchmark kinds plus EOI and HLT.
func matrixOps(st *experiment.Stack, v *hyper.VCPU) []hyper.Op {
	dest := uint32((v.ID + 1) % len(v.VM.VCPUs))
	return []hyper.Op{
		hyper.Hypercall(),
		hyper.DevNotify(st.Net.Doorbell),
		hyper.ProgramTimer(uint64(st.World.Now()) + 1_000_000),
		hyper.SendIPI(dest, apic.VectorReschedule),
		hyper.EOI(),
		hyper.Halt(),
	}
}

// TestSettleLedgerInvariantAcrossMatrix is the metamorphic contract of the
// staged pipeline over the experiment matrix: for every transaction, the
// per-stage cost ledger sums exactly to the cost the boundary returns —
// under DVH on and off, at every depth, with the plan cache in its default
// mode. (Cache-off identity is covered by TestPlanCacheOutputIdentity in
// experiment, whose rendered surface now includes the stage breakdown.)
func TestSettleLedgerInvariantAcrossMatrix(t *testing.T) {
	for _, spec := range matrixSpecs() {
		st, err := experiment.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		v := st.Target.VCPUs[0]
		for _, op := range matrixOps(st, v) {
			ledger, cost, err := st.World.ExecuteLedger(v, op)
			if err != nil {
				t.Fatal(err)
			}
			var sum sim.Cycles
			for _, c := range ledger {
				sum += c
			}
			if sum != cost {
				t.Errorf("%v %v: ledger sums to %v, boundary returned %v (%v)", spec, op.Kind, sum, cost, ledger)
			}
			if op.Kind == hyper.OpHLT {
				// Wake the vCPU again so the remaining ops run it normally.
				st.World.WakeIfIdle(v)
			}
		}
	}
}

// TestStageTotalsReconcileWithStatsAcrossMatrix asserts the aggregate form:
// per-stage totals reconcile with the Stats grand total (LevelCycles sum plus
// guest cycles) for matrix runs driven purely through World boundaries —
// micro measurement loops and the delivery boundaries alike.
func TestStageTotalsReconcileWithStatsAcrossMatrix(t *testing.T) {
	for _, spec := range matrixSpecs() {
		st, err := experiment.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		v := st.Target.VCPUs[0]
		st.Machine.Stats.Reset()
		ss := &hyper.StageStats{}
		st.World.Stages = ss
		var returned sim.Cycles
		for _, op := range matrixOps(st, v) {
			c, err := st.World.Execute(v, op)
			if err != nil {
				t.Fatal(err)
			}
			returned += c
			if op.Kind == hyper.OpHLT {
				returned += st.World.WakeIfIdle(v)
			}
		}
		returned += st.World.DeviceRX(st.Net, v)
		st.World.Stages = nil

		if got := ss.TotalCycles(); got != returned {
			t.Errorf("%v: stage total %v, boundaries returned %v", spec, got, returned)
		}
		if got, want := ss.TotalCycles(), st.Machine.Stats.TotalCycles(); got != want {
			t.Errorf("%v: stage total %v does not reconcile with Stats grand total %v", spec, got, want)
		}
	}
}

// TestRunMicroObservedDecomposesTable3 ties the stage view of an observed
// RunMicro back to the paper's numbers and holds RunMicro's sink contract:
// for every Table 3 cell, the per-stage averages of the world's attached
// StageStats sum to exactly the average RunMicro reports, the observed
// transaction count matches the iteration count (SendIPI's unmeasured setup
// halts excluded), the same sink is attached when RunMicro returns, and a
// world with no sink still has none.
func TestRunMicroObservedDecomposesTable3(t *testing.T) {
	const iters = 16
	for _, spec := range matrixSpecs() {
		for _, m := range workload.Micros() {
			st, err := experiment.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			ss := &hyper.StageStats{}
			st.World.Stages = ss
			avg, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, iters)
			if err != nil {
				t.Fatal(err)
			}
			if st.World.Stages != ss {
				t.Errorf("%v %v: RunMicro returned with sink %p attached, want %p", spec, m, st.World.Stages, ss)
			}
			if got := ss.TotalSettled(); got != iters {
				t.Errorf("%v %v: observed %d transactions, want %d", spec, m, got, iters)
			}
			var sum sim.Cycles
			for s := range hyper.NumStages {
				sum += ss.StageTotal(s) / iters
			}
			if sum != avg {
				t.Errorf("%v %v: stage averages sum to %v, RunMicro reports %v", spec, m, sum, avg)
			}

			st.World.Stages = nil
			if _, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, iters); err != nil {
				t.Fatal(err)
			}
			if st.World.Stages != nil {
				t.Errorf("%v %v: RunMicro left a sink on a world that had none", spec, m)
			}
		}
	}
}
