package experiment

import (
	"testing"
)

// runWidth runs fn with the harness pool fixed at the given width, restoring
// the previous setting afterwards.
func runWidth(t testing.TB, width int, fn func() (string, error)) string {
	t.Helper()
	prev := int(parallelism.Load())
	SetParallelism(width)
	defer SetParallelism(prev)
	out, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelDeterminism is the contract that makes the parallel harness
// safe: the rendered Figure 7 and Table 3 entries must be byte-identical
// between a sequential run and a pool at width 8, because every cell builds
// its own World and results are collected in input order.
func TestParallelDeterminism(t *testing.T) {
	for _, name := range []string{"figure7", "table3"} {
		fn := textOf(t, name)
		seq, seqCells := runFresh(t, 1, fn)
		par, parCells := runFresh(t, 8, fn)
		if seqCells == 0 || parCells == 0 {
			t.Errorf("%s: computed %d cells sequentially and %d in parallel; a memo hit would make the comparison vacuous", name, seqCells, parCells)
		}
		if seq != par {
			t.Errorf("%s: parallel output diverges from sequential:\n--- sequential ---\n%s\n--- parallel(8) ---\n%s", name, seq, par)
		}
	}
}

// TestParallelismSetting exercises the width control used by the -parallel
// flags.
func TestParallelismSetting(t *testing.T) {
	prev := int(parallelism.Load())
	defer SetParallelism(prev)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	SetParallelism(-5) // negative collapses to auto
	if got := Parallelism(); got < 1 {
		t.Fatalf("auto parallelism = %d, want >= 1", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("default parallelism = %d, want >= 1", got)
	}
}

// benchFigure7 runs Figure 7 once at the given pool width.
func benchFigure7(b *testing.B, width int) {
	b.Helper()
	prev := int(parallelism.Load())
	SetParallelism(width)
	defer SetParallelism(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetCells() // time the simulation, not memo hits
		if _, err := Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Sequential and BenchmarkFigure7Parallel compare the
// wall-clock cost of one full figure with the pool off and saturated; on a
// multi-core host the parallel variant should approach a cells/cores
// speedup, since cells share no state and the exit path does not allocate.
func BenchmarkFigure7Sequential(b *testing.B) { benchFigure7(b, 1) }

func BenchmarkFigure7Parallel(b *testing.B) { benchFigure7(b, 0) } // auto width
