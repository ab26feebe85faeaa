package workload_test

import (
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/workload"
)

// timerClaim is a test interceptor that claims every ProgramTimer exit and
// charges cost(claim, v) cycles for the claim-th one, on vCPU v. A stack
// whose costs drift or depend on the vCPU is what the periodic shortcut's
// equal-deltas check and its vCPU-aware period exist for; no shipped stack
// is one.
type timerClaim struct {
	claims int
	cost   func(claim int, v *hyper.VCPU) sim.Cycles
}

func (*timerClaim) InterceptorInfo() (string, int) { return "test-timer-claim", 0 }

func (c *timerClaim) TryHandle(w *hyper.World, v *hyper.VCPU, op hyper.Op) (bool, error) {
	if op.Kind != hyper.OpTimerProgram {
		return false, nil
	}
	w.Host.Machine.Stats.ChargeLevel(0, c.cost(c.claims, v))
	c.claims++
	return true, nil
}

// periodicCase is one workload on a depth-2 paravirtual stack, with a
// timerClaim when cost is set, and with no StageStats attached when bare is.
type periodicCase struct {
	name string
	p    workload.Profile
	cost func(claim int, v *hyper.VCPU) sim.Cycles
	bare bool
}

// run builds a fresh stack for c with a fresh StageStats (none when c.bare)
// and runs n transactions through run.
func (c periodicCase) run(t *testing.T, n int, run func(r *workload.Runner, n int) (workload.Result, error)) (workload.Result, hyper.StageStats) {
	t.Helper()
	st, err := experiment.Build(experiment.Spec{Depth: 2, IO: experiment.IOParavirt})
	if err != nil {
		t.Fatal(err)
	}
	if c.cost != nil {
		if err := st.World.RegisterInterceptor(&timerClaim{cost: c.cost}); err != nil {
			t.Fatal(err)
		}
	}
	var stages hyper.StageStats
	if !c.bare {
		st.World.Stages = &stages
	}
	res, err := run(&workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: c.p}, n)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res, stages
}

// compare runs n transactions of c through RunPeriodic and through Run, each
// on a fresh stack, requires equal Results (latency histogram and breakdown
// included) and equal stage tables, and returns how many transactions
// RunPeriodic simulated.
func (c periodicCase) compare(t *testing.T, n int) int {
	t.Helper()
	var simulated int
	got, gotStages := c.run(t, n, func(r *workload.Runner, n int) (res workload.Result, err error) {
		res, simulated, err = r.RunPeriodic(n)
		return res, err
	})
	want, wantStages := c.run(t, n, (*workload.Runner).Run)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s, n=%d: RunPeriodic differs from Run:\n got %+v\nwant %+v", c.name, n, got, want)
	}
	if gotStages != wantStages {
		t.Errorf("%s, n=%d: RunPeriodic leaves other stage tables than Run:\n got %s\nwant %s", c.name, n, gotStages.String(), wantStages.String())
	}
	if simulated < 1 || simulated > n {
		t.Errorf("%s, n=%d: RunPeriodic reports %d transactions simulated", c.name, n, simulated)
	}
	return simulated
}

// timerProfile is a workload that programs timers at the given rate per
// transaction on the given number of cores, and does nothing else.
func timerProfile(name string, cores int, timers float64) workload.Profile {
	return workload.Profile{Name: name, Unit: "trans/s", NativeScore: 1000, HigherIsBetter: true,
		Cores: cores, WorkCycles: 10_000, Timers: timers}
}

// TestRunPeriodicMatchesRun holds the periodic shortcut to Run where its
// equal-deltas check and its vCPU-aware period decide the answer:
//   - claim costs of 3000, 2000, then 100 forever, one claim per two-
//     transaction period: only the check keeps the shortcut from multiplying
//     a warm-up period;
//   - a claim cost that depends on the vCPU, on four cores: a period of two
//     transactions, blind to the rotation, never repeats, so only a period
//     of four lets the run extrapolate;
//   - a rate whose shapes repeat only every 100 transactions, past the
//     search window, and runs shorter than the warm-up plus two periods:
//     both must simulate every transaction;
//   - every run length from 1 to 3p+1, for each workload with period p, and
//     a World with no StageStats attached.
func TestRunPeriodicMatchesRun(t *testing.T) {
	const n = 1200
	apache, _ := workload.ProfileByName("Apache")
	warmup := periodicCase{name: "claim costs 3000, 2000, then 100", p: timerProfile("warmup", 1, 0.5),
		cost: func(claim int, _ *hyper.VCPU) sim.Cycles { return []sim.Cycles{3000, 2000, 100}[min(claim, 2)] }}
	byVCPU := periodicCase{name: "claim cost by vCPU", p: timerProfile("by-vcpu", 4, 0.5),
		cost: func(_ int, v *hyper.VCPU) sim.Cycles { return 100 * sim.Cycles(v.ID+1) }}
	sparse := periodicCase{name: "a timer every 100 transactions", p: timerProfile("sparse", 1, 0.01)}

	t.Run("equal-deltas check", func(t *testing.T) {
		// Periods [4,6) and [6,8) are the first two equal ones.
		if got := warmup.compare(t, n); got != 8 {
			t.Errorf("simulated %d transactions, want 8", got)
		}
	})
	t.Run("vCPU rotation", func(t *testing.T) {
		if got := byVCPU.compare(t, n); got >= n {
			t.Errorf("simulated all %d transactions; a period of four repeats the rotation", got)
		}
	})
	t.Run("full simulation", func(t *testing.T) {
		if got := sparse.compare(t, n); got != n {
			t.Errorf("no period: simulated %d of %d transactions", got, n)
		}
		for _, tc := range []struct {
			c periodicCase
			n int
		}{{warmup, 3}, {byVCPU, 7}} {
			if got := tc.c.compare(t, tc.n); got != tc.n {
				t.Errorf("%s, n=%d: simulated %d transactions, want all", tc.c.name, tc.n, got)
			}
		}
	})
	t.Run("every short run", func(t *testing.T) {
		for _, tc := range []struct {
			c      periodicCase
			period int
		}{{warmup, 2}, {byVCPU, 4}, {periodicCase{name: "Apache", p: apache}, 20}} {
			for n := 1; n <= 3*tc.period+1; n++ {
				tc.c.compare(t, n)
			}
		}
	})
	t.Run("no stage sink", func(t *testing.T) {
		if got := (periodicCase{name: "Apache, no StageStats", p: apache, bare: true}).compare(t, n); got >= n {
			t.Errorf("simulated all %d transactions", got)
		}
	})
}
