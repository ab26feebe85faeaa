package experiment

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/hyper"
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
// cache off; and concurrent callers of one key share one computation.
func TestCellMemo(t *testing.T) {
	for _, tc := range []struct {
		names             []string
		lookups, computed int64
	}{
		{[]string{"figure7", "figure8", "figure9", "figure10", "breakdown", "workload-stages", "latency"}, 230, 112},
		{[]string{"table3", "depth", "stages", "storms"}, 82, 38},
	} {
		resetCells()
		renderEntries(t, 2, tc.names)
		if l, c := cells.lookups.Load(), cells.computed.Load(); l != tc.lookups || c != tc.computed {
			t.Fatalf("%v made %d lookups and %d computations, want %d and %d", tc.names, l, c, tc.lookups, tc.computed)
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
