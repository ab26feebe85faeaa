package experiment

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/hyper"
	"repro/internal/workload"
)

// resetCells empties the application-cell memo and zeroes its counters, so
// the next figure call simulates its cells again. For sequential tests only:
// a reset while another goroutine is inside appCell would mix two memos in
// one run. TestGoldenMatrix's parallel subtests share the memo and need no
// reset.
func resetCells() {
	cells.mu.Lock()
	defer cells.mu.Unlock()
	cells.entries = nil
	cells.lookups.Store(0)
	cells.computed.Store(0)
}

// runFresh is runWidth from an empty cell memo: every application cell fn
// needs is simulated again, so comparisons across pool widths and plan-cache
// modes compare computations, not a computation with its own memo hit. It
// returns fn's output and the number of cells computed.
func runFresh(t testing.TB, width int, fn func() (string, error)) (string, int64) {
	t.Helper()
	resetCells()
	out := runWidth(t, width, fn)
	return out, cells.computed.Load()
}

// appEntries runs every application entry of `nvbench -all` — Figures 7–10,
// Breakdown, WorkloadStageBreakdown and LatencyTails — at the given width.
func appEntries(t *testing.T, width int) {
	t.Helper()
	runWidth(t, width, func() (string, error) {
		for _, fig := range []func() ([]AppResult, error){Figure7, Figure8, Figure9, Figure10} {
			if _, err := fig(); err != nil {
				return "", err
			}
		}
		if _, err := Breakdown(); err != nil {
			return "", err
		}
		if _, err := WorkloadStageBreakdown(); err != nil {
			return "", err
		}
		_, err := LatencyTails()
		return "", err
	})
}

// memoRecords copies every record in the memo, failing on memoized errors.
func memoRecords(t *testing.T) map[cellKey]cellRecord {
	t.Helper()
	cells.mu.Lock()
	defer cells.mu.Unlock()
	out := make(map[cellKey]cellRecord, len(cells.entries))
	for k, e := range cells.entries {
		if e.err != nil {
			t.Fatalf("%s on %+v: %v", k.workload.Name, k.spec, e.err)
		}
		out[k] = e.rec
	}
	return out
}

// TestCellMemo pins the memo's three promises: the `nvbench -all`
// application entries look up 230 cells but simulate only the 112 distinct
// keys; a record is a pure function of its key, equal to recomputations at
// another pool width and with the plan cache off; and concurrent callers of
// one key share one computation.
func TestCellMemo(t *testing.T) {
	resetCells()
	appEntries(t, 2)
	if l, c := cells.lookups.Load(), cells.computed.Load(); l != 230 || c != 112 {
		t.Fatalf("application entries made %d lookups and %d computations, want 230 and 112", l, c)
	}
	first := memoRecords(t)
	if len(first) != 112 {
		t.Fatalf("memo holds %d records, want 112", len(first))
	}

	resetCells()
	appEntries(t, 1)
	sequential := memoRecords(t)

	resetCells()
	t.Setenv(hyper.NoPlanCacheEnv, "1")
	appEntries(t, 2)
	live := memoRecords(t)
	t.Setenv(hyper.NoPlanCacheEnv, "")

	for k, rec := range first {
		if !k.planCache {
			t.Fatalf("%s on %+v: keyed with the plan cache off in the default mode", k.workload.Name, k.spec)
		}
		if got, ok := sequential[k]; !ok || !reflect.DeepEqual(got, rec) {
			t.Errorf("%s on %+v: record at width 1 differs from width 2 (present %v)", k.workload.Name, k.spec, ok)
		}
		lk := k
		lk.planCache = false
		if got, ok := live[lk]; !ok || !reflect.DeepEqual(got, rec) {
			t.Errorf("%s on %+v: record under %s=1 differs from the cached run (present %v)", k.workload.Name, k.spec, hyper.NoPlanCacheEnv, ok)
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
				recs[i], errs[i] = appCell(spec, p)
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
			_, err := appCells(bad, p, appResult)
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
