package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/hyper"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/workload"
)

// resetCells empties the cell memo and zeroes its counters, so the next
// entry call simulates its cells again. For sequential tests only: a reset
// while another goroutine is inside cell would mix two memos in one run.
// TestGoldenMatrix's parallel subtests share the memo and need no reset.
func resetCells() {
	cells.mu.Lock()
	defer cells.mu.Unlock()
	cells.entries = nil
	cells.lookups.Store(0)
	cells.computed.Store(0)
	cells.extrapolated.Store(0)
	cells.simulated.Store(0)
}

// runFresh is runWidth from an empty cell memo: every cell fn needs is
// simulated again, so comparisons across pool widths and plan-cache modes
// compare computations, not a computation with its own memo hit. It returns
// fn's output and the number of cells computed.
func runFresh(t testing.TB, width int, fn func() (string, error)) (string, int64) {
	t.Helper()
	resetCells()
	out := runWidth(t, width, fn)
	return out, cells.computed.Load()
}

// appEntries are the `nvbench -all` entries that show application cells.
var appEntries = []string{"figure7", "figure8", "figure9", "figure10", "breakdown", "workload-stages", "latency"}

// renderEntries renders the named entries at the given width.
func renderEntries(t *testing.T, width int, names []string) {
	t.Helper()
	for _, name := range names {
		runWidth(t, width, textOf(t, name))
	}
}

// memoRecords copies every record in the memo, failing on memoized errors.
func memoRecords(t *testing.T) map[cellKey]cellRecord {
	t.Helper()
	cells.mu.Lock()
	defer cells.mu.Unlock()
	out := make(map[cellKey]cellRecord, len(cells.entries))
	for k, e := range cells.entries {
		if e.err != nil {
			t.Fatalf("%v on %+v: %v", k.run, k.spec, e.err)
		}
		out[k] = e.rec
	}
	return out
}

// TestCellMemo pins the memo's three promises: the `nvbench -all` entries
// look up each cell they show but simulate only the distinct keys — 230
// lookups and 112 computations for the seven application entries, 82 and 38
// for the microbenchmark and storm entries; a record is a pure function of
// its key, equal to recomputations at another pool width and with the plan
// cache off; and concurrent callers of one key share one computation. It
// also pins what the periodic shortcut saves: every application cell is
// extrapolated, and together they simulate 5,920 of their 134,400
// transactions, while with the plan cache off none is extrapolated and all
// 134,400 are simulated.
func TestCellMemo(t *testing.T) {
	for _, tc := range []struct {
		names             []string
		lookups, computed int64
		// extrapolated and simulated count application cells and
		// transactions with the plan cache on; liveSimulated counts the
		// transactions simulated with it off.
		extrapolated, simulated, liveSimulated int64
	}{
		{appEntries, 230, 112, 112, 5920, 134400},
		{[]string{"table3", "depth", "stages", "storms"}, 82, 38, 0, 0, 0},
	} {
		resetCells()
		renderEntries(t, 2, tc.names)
		if l, c := cells.lookups.Load(), cells.computed.Load(); l != tc.lookups || c != tc.computed {
			t.Fatalf("%v made %d lookups and %d computations, want %d and %d", tc.names, l, c, tc.lookups, tc.computed)
		}
		if e, s := cells.extrapolated.Load(), cells.simulated.Load(); e != tc.extrapolated || s != tc.simulated {
			t.Errorf("%v extrapolated %d cells and simulated %d transactions, want %d and %d", tc.names, e, s, tc.extrapolated, tc.simulated)
		}
		first := memoRecords(t)
		if int64(len(first)) != tc.computed {
			t.Fatalf("%v: memo holds %d records, want %d", tc.names, len(first), tc.computed)
		}

		resetCells()
		renderEntries(t, 1, tc.names)
		sequential := memoRecords(t)

		resetCells()
		t.Setenv(hyper.NoPlanCacheEnv, "1")
		renderEntries(t, 2, tc.names)
		live := memoRecords(t)
		t.Setenv(hyper.NoPlanCacheEnv, "")
		if e, s := cells.extrapolated.Load(), cells.simulated.Load(); e != 0 || s != tc.liveSimulated {
			t.Errorf("%v under %s=1 extrapolated %d cells and simulated %d transactions, want 0 and %d", tc.names, hyper.NoPlanCacheEnv, e, s, tc.liveSimulated)
		}

		for k, rec := range first {
			if !k.planCache {
				t.Fatalf("%v on %+v: keyed with the plan cache off in the default mode", k.run, k.spec)
			}
			if got, ok := sequential[k]; !ok || !reflect.DeepEqual(got, rec) {
				t.Errorf("%v on %+v: record at width 1 differs from width 2 (present %v)", k.run, k.spec, ok)
			}
			lk := k
			lk.planCache = false
			if got, ok := live[lk]; !ok || !reflect.DeepEqual(got, rec) {
				t.Errorf("%v on %+v: record under %s=1 differs from the cached run (present %v)", k.run, k.spec, hyper.NoPlanCacheEnv, ok)
			}
		}
	}

	t.Run("concurrent callers compute once", func(t *testing.T) {
		resetCells()
		p := workload.Profiles()[0]
		spec := Spec{Depth: 2, IO: IODVH}
		recs := make([]*cellRecord, 8)
		errs := make([]error, 8)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range recs {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				recs[i], errs[i] = cell(spec, appRun{p})
			}()
		}
		start.Done()
		done.Wait()
		for i := range recs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if recs[i] != recs[0] {
				t.Errorf("caller %d got a different record", i)
			}
		}
		if l, c := cells.lookups.Load(), cells.computed.Load(); l != 8 || c != 1 {
			t.Errorf("8 concurrent callers made %d lookups and %d computations, want 8 and 1", l, c)
		}
	})

	t.Run("errors are memoized and name the cell", func(t *testing.T) {
		resetCells()
		bad := []appConfig{{"VM+DVH", Spec{Depth: 1, IO: IODVH}}}
		p := workload.Profiles()[:1]
		for i := 0; i < 2; i++ {
			_, err := cellsOf(bad, p, appResult)
			if err == nil {
				t.Fatal("a depth-1 DVH cell built")
			}
			if msg := err.Error(); !strings.Contains(msg, p[0].Name) || !strings.Contains(msg, "VM+DVH") {
				t.Errorf("error does not name the workload and the configuration: %v", err)
			}
		}
		if c := cells.computed.Load(); c != 1 {
			t.Errorf("a failing key was computed %d times, want 1", c)
		}
	})
}

// TestPeriodicCellsMatchRun compares every application cell of `nvbench
// -all` under every built-in profile, 448 cells, with Runner.Run of its
// workload on a fresh stack with a fresh StageStats, field by field: the
// memo's record, which Runner.RunPeriodic computed, must equal Run's Result,
// its latency histogram and breakdown included, and Run's stage tables.
func TestPeriodicCellsMatchRun(t *testing.T) {
	names := profile.Names()
	if len(names) != 4 {
		t.Fatalf("%d built-in profiles, want 4: %v", len(names), names)
	}
	for _, name := range names {
		withDefaultProfile(t, name, func() {
			resetCells()
			renderEntries(t, 2, appEntries)
			recs := memoRecords(t)
			if e := cells.extrapolated.Load(); len(recs) != 112 || e != 112 {
				t.Fatalf("%s: memo holds %d application records, %d extrapolated; want 112, all extrapolated", name, len(recs), e)
			}
			keys := make([]cellKey, 0, len(recs))
			for k := range recs {
				keys = append(keys, k)
			}
			diffs, err := parallel.Map(2, len(keys), func(i int) (string, error) {
				k := keys[i]
				st, err := Build(k.spec)
				if err != nil {
					return "", err
				}
				var stages hyper.StageStats
				st.World.SetPlanCache(k.planCache)
				st.World.Stages = &stages
				app := k.run.(appRun)
				res, err := (&workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: app.Profile}).Run(appTxns)
				if err != nil {
					return "", err
				}
				rec := recs[k]
				if !reflect.DeepEqual(rec.result, res) || !reflect.DeepEqual(rec.stages, stages) {
					return fmt.Sprintf("%s: %v on %+v: shortcut record differs from Run (result equal %v, stages equal %v)",
						name, app, k.spec, reflect.DeepEqual(rec.result, res), reflect.DeepEqual(rec.stages, stages)), nil
				}
				return "", nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diffs {
				if d != "" {
					t.Error(d)
				}
			}
		})
	}
}
