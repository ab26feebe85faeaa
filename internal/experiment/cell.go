package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hyper"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cellKey identifies one application cell: everything its result depends
// on. The Spec is normalized (Spec.normalize), so it carries the resolved
// calibration-profile name and the DVH feature set the stack really runs
// with; planCache is the mode hyper.NewWorld would pick. Two figures that
// plot the same bar under different labels share one key.
type cellKey struct {
	spec      Spec
	workload  workload.Profile
	planCache bool
}

// cellRecord is everything one application cell produces: the run's Result
// (overhead, score, latency histogram, op-class breakdown), its per-stage
// attribution and the machine clock. Every application figure and
// experiment is a projection of these records. A record is shared by every
// caller of its key, so projections read it and never write it.
type cellRecord struct {
	result  workload.Result
	stages  trace.StageStats
	clockHz uint64
}

// cellEntry computes its key's record at most once; the error is kept like
// the record, so a failing key fails every caller the same way.
type cellEntry struct {
	once sync.Once
	rec  cellRecord
	err  error
}

// cells is the process-wide application-cell memo: every entry point a
// process runs (the `nvbench -all` sequence, nvreport, nvperf) shares it, and
// sharing is safe because a record depends only on its key. The map is
// guarded by mu; each entry's once lets concurrent pool workers that ask for
// one key wait for a single computation. lookups and computed count appCell
// calls and computations for tests.
var cells struct {
	mu       sync.Mutex
	entries  map[cellKey]*cellEntry
	lookups  atomic.Int64
	computed atomic.Int64
}

// appCell returns the record of one Table 2 workload run for appTxns
// transactions on a fresh stack built from spec. A cell is a pure function
// of its key — every stack is built from scratch and the simulator is
// deterministic — so each key is simulated at most once per process and
// later calls share its record.
func appCell(spec Spec, p workload.Profile) (*cellRecord, error) {
	spec, _, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	key := cellKey{spec: spec, workload: p, planCache: hyper.PlanCacheDefault()}
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

// compute simulates the cell: Build in the key's plan-cache mode, then a
// Runner with the record's StageStats attached for the whole run.
func (rec *cellRecord) compute(key cellKey) error {
	st, err := Build(key.spec)
	if err != nil {
		return err
	}
	st.World.SetPlanCache(key.planCache)
	rec.clockHz = st.Machine.ClockHz
	r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: key.workload, Stages: &rec.stages}
	rec.result, err = r.Run(appTxns)
	return err
}

// appConfig names a (depth, io, guest, features) bar.
type appConfig struct {
	label string
	spec  Spec
}

// appCells projects the record of every (config, workload) cell, config-major
// with the workload fastest — the order every figure prints. Cells fan out
// across the harness pool and come back in cell order, so the output is
// byte-identical at any width. Each error names the workload and the
// configuration.
func appCells[T any](configs []appConfig, profiles []workload.Profile, project func(label string, rec *cellRecord) T) ([]T, error) {
	return mapCells(len(configs)*len(profiles), func(i int) (T, error) {
		cfg, p := configs[i/len(profiles)], profiles[i%len(profiles)]
		rec, err := appCell(cfg.spec, p)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("%s on %s: %w", p.Name, cfg.label, err)
		}
		return project(cfg.label, rec), nil
	})
}
