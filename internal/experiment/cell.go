package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cellKey identifies one cell: everything its result depends on. The Spec is
// normalized (Spec.normalize), so it carries the resolved calibration-profile
// name and the DVH feature set the stack really runs with; run is what the
// cell simulates on it; planCache is the mode hyper.NewWorld would pick. Two
// entries that show one cell under different labels share one key.
type cellKey struct {
	spec      Spec
	run       cellRun
	planCache bool
}

// cellRun is what a cell simulates on its fresh stack: a Table 2 workload,
// a Table 1 microbenchmark or a delivery storm. Each is a small comparable
// value, so it can sit in the key; String names it in errors.
type cellRun interface {
	fmt.Stringer
	measure(st *Stack, rec *cellRecord) error
}

// appRun runs a Table 2 workload for appTxns transactions.
type appRun struct{ workload.Profile }

func (r appRun) String() string { return r.Name }

func (r appRun) measure(st *Stack, rec *cellRecord) (err error) {
	runner := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: r.Profile}
	rec.result, err = runner.Run(appTxns)
	return err
}

// microRun measures a Table 1 microbenchmark over microIters iterations.
type microRun struct{ workload.Micro }

func (r microRun) measure(st *Stack, rec *cellRecord) (err error) {
	rec.avg, err = workload.RunMicro(st.World, st.Target.VCPUs[0], r.Micro, st.Net, microIters)
	return err
}

// stormRun drives a delivery storm for stormEvents delivered events.
type stormRun struct{ workload.Storm }

func (r stormRun) measure(st *Stack, rec *cellRecord) (err error) {
	rec.avg, err = workload.RunStorm(st.World, st.Target.VCPUs[0], r.Storm, stormEvents)
	return err
}

// cellOp is what the entries list as a cell's run.
type cellOp interface {
	workload.Profile | workload.Micro | workload.Storm
}

// runOf wraps op as the cell run its key holds.
func runOf[Op cellOp](op Op) cellRun {
	var run cellRun
	switch op := any(op).(type) {
	case workload.Profile:
		run = appRun{op}
	case workload.Micro:
		run = microRun{op}
	case workload.Storm:
		run = stormRun{op}
	}
	return run
}

// cellRecord is everything one cell produces: an application cell's Result
// (overhead, score, latency histogram, op-class breakdown) or another cell's
// average cycles per operation, and the stage attribution of the run (a
// microbenchmark's or storm's covers exactly the measured operations; no
// entry reads a storm's). Every entry but the migration projects these
// records; a record is shared by every caller of its key, so projections
// never write it.
type cellRecord struct {
	result workload.Result
	avg    sim.Cycles
	stages hyper.StageStats
}

// cellEntry computes its key's record at most once; the error is kept like
// the record, so a failing key fails every caller the same way.
type cellEntry struct {
	once sync.Once
	rec  cellRecord
	err  error
}

// cells is the process-wide cell memo: every entry point a process runs (the
// `nvbench -all` sequence, nvreport, nvperf) shares it, and sharing is safe
// because a record depends only on its key. The map is guarded by mu; each
// entry's once lets concurrent pool workers that ask for one key wait for a
// single computation. lookups and computed count cell calls and computations
// for tests.
var cells struct {
	mu       sync.Mutex
	entries  map[cellKey]*cellEntry
	lookups  atomic.Int64
	computed atomic.Int64
}

// cell returns the record of run on a fresh stack built from spec. A cell is
// a pure function of its key — every stack is built from scratch and the
// simulator is deterministic — so each key is simulated at most once per
// process and later calls share its record.
func cell(spec Spec, run cellRun) (*cellRecord, error) {
	spec, _, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	key := cellKey{spec: spec, run: run, planCache: hyper.PlanCacheDefault()}
	cells.mu.Lock()
	e := cells.entries[key]
	if e == nil {
		if cells.entries == nil {
			cells.entries = make(map[cellKey]*cellEntry)
		}
		e = new(cellEntry)
		cells.entries[key] = e
	}
	cells.mu.Unlock()
	cells.lookups.Add(1)
	e.once.Do(func() {
		cells.computed.Add(1)
		e.err = e.rec.compute(key)
	})
	if e.err != nil {
		return nil, e.err
	}
	return &e.rec, nil
}

// compute simulates the cell: Build in the key's plan-cache mode, then the
// key's run with the record's StageStats attached, so it observes the run
// and nothing of the build.
func (rec *cellRecord) compute(key cellKey) error {
	st, err := Build(key.spec)
	if err != nil {
		return err
	}
	st.World.SetPlanCache(key.planCache)
	st.World.Stages = &rec.stages
	return key.run.measure(st, rec)
}

// appConfig names a (depth, io, guest, features) bar.
type appConfig struct {
	label string
	spec  Spec
}

// cellsOf projects the record of every (config, op) cell, config-major with
// the op fastest — the order every figure prints. Cells fan out across the
// harness pool and come back in cell order, so the output is byte-identical
// at any width. Each error names the op and the configuration.
func cellsOf[Op cellOp, T any](configs []appConfig, ops []Op, project func(label string, rec *cellRecord) T) ([]T, error) {
	return mapCells(len(configs)*len(ops), func(i int) (T, error) {
		cfg, run := configs[i/len(ops)], runOf(ops[i%len(ops)])
		rec, err := cell(cfg.spec, run)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("%v on %s: %w", run, cfg.label, err)
		}
		return project(cfg.label, rec), nil
	})
}

// record is the identity projection, for entries that lay records out in an
// order of their own.
func record(_ string, rec *cellRecord) *cellRecord { return rec }
