package workload

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// benchTxns is one benchmark op: a Run of this many transactions, or a
// RunFor of the simulated time they take natively.
const benchTxns = 1000

// timerHorizon covers every deadline a Run arms: Run does not advance the
// clock, and each ProgramTimer arms now+1,000,000.
const timerHorizon = 1_000_000

// BenchmarkRunnerRun measures Runner.Run on a warm depth-2 paravirtual stack,
// cycling through the Table 2 profiles as the app-steady benchmark does,
// and reports ns and allocations per transaction. The timers each Run arms
// are fired between ops with the timer stopped, so the event queue does not
// grow with b.N.
func BenchmarkRunnerRun(b *testing.B) {
	r := benchRunner(b)
	w := r.W
	profiles := Profiles()
	perTxn(b, func(i int) int {
		r.P = profiles[i%len(profiles)]
		res, err := r.Run(benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		return res.Transactions
	}, func() {
		w.RunUntil(w.Now() + timerHorizon)
	})
}

// BenchmarkRunnerRunFor is BenchmarkRunnerRun for RunFor: the clock advances
// with the transactions, so the timers they arm fire inside the measured run.
func BenchmarkRunnerRunFor(b *testing.B) {
	r := benchRunner(b)
	profiles := Profiles()
	perTxn(b, func(i int) int {
		r.P = profiles[i%len(profiles)]
		res, err := r.RunFor(benchTxns * r.P.WorkCycles)
		if err != nil {
			b.Fatal(err)
		}
		return res.Transactions
	}, nil)
}

// benchRunner returns a jittered runner on a depth-2 paravirtual stack,
// warmed by one Run and one RunFor of every profile.
func benchRunner(b *testing.B) *Runner {
	w, vm, net, blk := buildL2(b, 0)
	r := &Runner{W: w, VM: vm, Net: net, Blk: blk, RNG: sim.NewRNG(1)}
	for _, p := range Profiles() {
		r.P = p
		if _, err := r.Run(benchTxns); err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunFor(benchTxns * p.WorkCycles); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// perTxn runs op b.N times and reports ns/txn and allocs/txn over the
// transactions the ops return. between, when non-nil, runs after each op
// with the timer stopped and its allocations excluded.
func perTxn(b *testing.B, op func(i int) int, between func()) {
	var ms runtime.MemStats
	var txns int
	var excluded uint64
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&ms)
	start := ms.Mallocs
	for i := 0; i < b.N; i++ {
		txns += op(i)
		if between != nil {
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			between()
			runtime.ReadMemStats(&ms)
			excluded += ms.Mallocs - before
			b.StartTimer()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(txns), "ns/txn")
	b.ReportMetric(float64(ms.Mallocs-start-excluded)/float64(txns), "allocs/txn")
}
