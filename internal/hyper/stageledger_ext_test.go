// Package hyper_test holds the metamorphic settle-ledger tests that need the
// full experiment matrix: the external test package can import experiment
// (which imports hyper) without a cycle, while still reaching the
// ExecuteLedger hook exported by export_test.go.
package hyper_test

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/workload"
)

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
		hyper.ProgramTimer(uint64(st.Machine.Engine.Now()) + 1_000_000),
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
				if _, err := st.World.WakeIfIdle(v); err != nil {
					t.Fatal(err)
				}
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
				wake, werr := st.World.WakeIfIdle(v)
				if werr != nil {
					t.Fatal(werr)
				}
				returned += wake
			}
		}
		rx, err := st.World.DeviceRX(st.Net, v)
		if err != nil {
			t.Fatal(err)
		}
		returned += rx
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
				sum += ss.StageTotal(hyper.Stage(s)) / iters
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
