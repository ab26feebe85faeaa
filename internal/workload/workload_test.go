package workload

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/vmx"
)

func TestProfilesWellFormed(t *testing.T) {
	ps := Profiles()
	if len(ps) != 7 {
		t.Fatalf("expected the 7 Table 2 workloads, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || p.Unit == "" {
			t.Errorf("profile %+v missing identity", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.WorkCycles == 0 || p.NativeScore == 0 || p.Cores == 0 {
			t.Errorf("profile %s has zero calibration fields", p.Name)
		}
		if p.HigherIsBetter != (p.Unit != "s") {
			t.Errorf("profile %s: unit %q inconsistent with HigherIsBetter=%v", p.Name, p.Unit, p.HigherIsBetter)
		}
	}
	if _, ok := ProfileByName("Hackbench"); !ok {
		t.Error("ProfileByName failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName found a ghost")
	}
}

func TestHackbenchHasNoIO(t *testing.T) {
	p, _ := ProfileByName("Hackbench")
	if p.TxKicks != 0 || p.RxBatches != 0 || p.BlkOps != 0 {
		t.Fatal("Hackbench must not perform device I/O (Figure 7 shows no I/O-model sensitivity)")
	}
}

func TestCarryConvergesToRate(t *testing.T) {
	var c carry
	total := 0
	const n = 10000
	for i := 0; i < n; i++ {
		total += c.take(0.3)
	}
	if total < 2990 || total > 3010 {
		t.Fatalf("carry of rate 0.3 fired %d times over %d txns", total, n)
	}
	var z carry
	for i := 0; i < 100; i++ {
		if z.take(0) != 0 {
			t.Fatal("zero rate fired")
		}
	}
	var whole carry
	if whole.take(2.0) != 2 {
		t.Fatal("integer rate should fire exactly")
	}
}

func buildL2(t testing.TB, dvhFeatures core.Features) (*hyper.World, *hyper.VM, *hyper.AssignedDevice, *hyper.AssignedDevice) {
	t.Helper()
	m := machine.MustNew(machine.Config{Name: "wl", CPUs: 10, MemoryBytes: 64 << 30, Caps: vmx.HardwareCaps})
	host := hyper.NewHost(m, hyper.KVM{})
	w := hyper.NewWorld(host)
	var d *core.DVH
	if dvhFeatures != 0 {
		var err error
		if d, err = core.Enable(w, dvhFeatures); err != nil {
			t.Fatal(err)
		}
	}
	l1, err := host.CreateVM(hyper.VMConfig{Name: "L1", VCPUs: 6, MemBytes: 24 << 30})
	if err != nil {
		t.Fatal(err)
	}
	gh := l1.InstallHypervisor(hyper.KVM{}, "kvm-L1")
	l2, err := gh.CreateVM(hyper.VMConfig{Name: "L2", VCPUs: 4, MemBytes: 12 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var net, blk *hyper.AssignedDevice
	if dvhFeatures != 0 {
		if err := d.ConfigureVM(l2); err != nil {
			t.Fatal(err)
		}
		net, err = d.AttachVirtualPassthroughNet(l2, "vp-net")
		if err != nil {
			t.Fatal(err)
		}
		blk, err = d.AttachVirtualPassthroughBlk(l2, "vp-blk")
		if err != nil {
			t.Fatal(err)
		}
	} else {
		if _, err := hyper.AttachParavirtNet(l1, "net-l1"); err != nil {
			t.Fatal(err)
		}
		if _, err := hyper.AttachParavirtBlk(l1, "blk-l1"); err != nil {
			t.Fatal(err)
		}
		net, err = hyper.AttachParavirtNet(l2, "net-l2")
		if err != nil {
			t.Fatal(err)
		}
		blk, err = hyper.AttachParavirtBlk(l2, "blk-l2")
		if err != nil {
			t.Fatal(err)
		}
	}
	return w, l2, net, blk
}

func TestNativeRunIsUnitOverhead(t *testing.T) {
	p, _ := ProfileByName("Apache")
	r := Runner{P: p}
	res, err := r.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead != 1.0 {
		t.Fatalf("native overhead = %v", res.Overhead)
	}
	if res.Score != p.NativeScore {
		t.Fatalf("native score = %v, want %v", res.Score, p.NativeScore)
	}
}

func TestRunValidation(t *testing.T) {
	w, vm, _, blk := buildL2(t, 0)
	p, _ := ProfileByName("Netperf RR")
	r := Runner{W: w, VM: vm, Blk: blk, P: p} // missing Net
	if _, err := r.Run(10); err == nil {
		t.Fatal("network profile without a net device should fail")
	}
	if _, err := (&Runner{P: p}).Run(0); err == nil {
		t.Fatal("zero transactions accepted")
	}
	pm, _ := ProfileByName("MySQL")
	r2 := Runner{W: w, VM: vm, Net: blk, P: pm} // missing Blk
	if _, err := r2.Run(10); err == nil {
		t.Fatal("block profile without a blk device should fail")
	}
}

// TestRunRejectsDegenerateInput: a VM run of a profile that drives no core
// or does no work per transaction, and a RunFor of zero simulated time, are
// errors naming the profile, not a divide-by-zero panic or a NaN result. A
// microbenchmark or storm that does not exist, or a count below one, is an
// error naming the micro or storm and the count, not a number measured on
// some other operation.
func TestRunRejectsDegenerateInput(t *testing.T) {
	base, _ := ProfileByName("Hackbench")
	noCores, negCores, noWork := base, base, base
	noCores.Cores = 0
	negCores.Cores = -1
	noWork.WorkCycles = 0
	cases := []struct {
		name string
		p    Profile
		run  func(r *Runner) (Result, error)
	}{
		{"Run with zero cores", noCores, func(r *Runner) (Result, error) { return r.Run(10) }},
		{"RunFor with zero cores", noCores, func(r *Runner) (Result, error) { return r.RunFor(1_000_000) }},
		{"Run with negative cores", negCores, func(r *Runner) (Result, error) { return r.Run(10) }},
		{"Run with zero work", noWork, func(r *Runner) (Result, error) { return r.Run(10) }},
		{"RunFor with zero work", noWork, func(r *Runner) (Result, error) { return r.RunFor(1_000_000) }},
		{"RunFor of zero time", base, func(r *Runner) (Result, error) { return r.RunFor(0) }},
		{"Run of zero transactions", base, func(r *Runner) (Result, error) { return r.Run(0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, vm, net, blk := buildL2(t, 0)
			res, err := tc.run(&Runner{W: w, VM: vm, Net: net, Blk: blk, P: tc.p})
			if err == nil {
				t.Fatalf("accepted: overhead %v, score %v, cycles/txn %v", res.Overhead, res.Score, res.CyclesPerTxn)
			}
			if !strings.Contains(err.Error(), tc.p.Name) {
				t.Errorf("error %q does not name the profile %q", err, tc.p.Name)
			}
		})
	}
	for _, tc := range []struct {
		name string
		run  func(w *hyper.World, v *hyper.VCPU, net *hyper.AssignedDevice) (sim.Cycles, error)
		want []string
	}{
		{"RunMicro of an unknown micro", func(w *hyper.World, v *hyper.VCPU, net *hyper.AssignedDevice) (sim.Cycles, error) {
			return RunMicro(w, v, Micro(7), net, 4)
		}, []string{"Micro(7)"}},
		{"RunMicro of zero iterations", func(w *hyper.World, v *hyper.VCPU, net *hyper.AssignedDevice) (sim.Cycles, error) {
			return RunMicro(w, v, MicroHypercall, net, 0)
		}, []string{"Hypercall", "got 0"}},
		{"RunMicro of negative iterations", func(w *hyper.World, v *hyper.VCPU, net *hyper.AssignedDevice) (sim.Cycles, error) {
			return RunMicro(w, v, MicroSendIPI, net, -3)
		}, []string{"SendIPI", "got -3"}},
		{"RunStorm of an unknown storm", func(w *hyper.World, v *hyper.VCPU, _ *hyper.AssignedDevice) (sim.Cycles, error) {
			return RunStorm(w, v, Storm(5), 8)
		}, []string{"Storm(5)"}},
		{"RunStorm of zero events", func(w *hyper.World, v *hyper.VCPU, _ *hyper.AssignedDevice) (sim.Cycles, error) {
			return RunStorm(w, v, StormIPI, 0)
		}, []string{"ipi-flood", "got 0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, vm, net, _ := buildL2(t, 0)
			c, err := tc.run(w, vm.VCPUs[0], net)
			if err == nil {
				t.Fatalf("accepted: %v cycles", c)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

func TestNestedOverheadExceedsAndDVHRecovers(t *testing.T) {
	for _, p := range Profiles() {
		wPar, vmPar, netPar, blkPar := buildL2(t, 0)
		par, err := (&Runner{W: wPar, VM: vmPar, Net: netPar, Blk: blkPar, P: p}).Run(600)
		if err != nil {
			t.Fatalf("%s paravirt: %v", p.Name, err)
		}
		wD, vmD, netD, blkD := buildL2(t, core.FeaturesAll)
		dvh, err := (&Runner{W: wD, VM: vmD, Net: netD, Blk: blkD, P: p}).Run(600)
		if err != nil {
			t.Fatalf("%s dvh: %v", p.Name, err)
		}
		if par.Overhead <= 1.0 || dvh.Overhead <= 1.0 {
			t.Errorf("%s: overheads must exceed native: paravirt %.2f, dvh %.2f", p.Name, par.Overhead, dvh.Overhead)
		}
		if dvh.Overhead >= par.Overhead {
			t.Errorf("%s: DVH (%.2f) must beat nested paravirtual (%.2f)", p.Name, dvh.Overhead, par.Overhead)
		}
		if dvh.Overhead > 2.0 {
			t.Errorf("%s: DVH overhead %.2f; the paper's headline is near-native nested execution", p.Name, dvh.Overhead)
		}
		if p.HigherIsBetter && dvh.Score <= par.Score {
			t.Errorf("%s: DVH score %.0f should exceed paravirt %.0f", p.Name, dvh.Score, par.Score)
		}
		if !p.HigherIsBetter && dvh.Score >= par.Score {
			t.Errorf("%s: DVH time %.2f should undercut paravirt %.2f", p.Name, dvh.Score, par.Score)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	p, _ := ProfileByName("Memcached")
	w1, vm1, n1, b1 := buildL2(t, 0)
	a, err := (&Runner{W: w1, VM: vm1, Net: n1, Blk: b1, P: p}).Run(500)
	if err != nil {
		t.Fatal(err)
	}
	w2, vm2, n2, b2 := buildL2(t, 0)
	b, err := (&Runner{W: w2, VM: vm2, Net: n2, Blk: b2, P: p}).Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("identical runs diverged: %v vs %v", a.TotalCycles, b.TotalCycles)
	}
}

func TestMicroMatchesDirectExecution(t *testing.T) {
	w, vm, net, _ := buildL2(t, 0)
	got, err := RunMicro(w, vm.VCPUs[0], MicroHypercall, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := w.Execute(vm.VCPUs[0], hyper.Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	if got != direct {
		t.Fatalf("micro average %v != direct cost %v", got, direct)
	}
	if _, err := RunMicro(w, vm.VCPUs[0], MicroDevNotify, nil, 1); err == nil {
		t.Fatal("DevNotify micro without device should fail")
	}
	if _, err := RunMicro(w, vm.VCPUs[0], MicroDevNotify, net, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMicro(w, vm.VCPUs[0], MicroSendIPI, nil, 4); err != nil {
		t.Fatal(err)
	}
}

func TestMicroNames(t *testing.T) {
	want := []string{"Hypercall", "DevNotify", "ProgramTimer", "SendIPI"}
	for i, m := range Micros() {
		if m.String() != want[i] {
			t.Errorf("micro %d = %q, want %q", i, m, want[i])
		}
	}
}

func TestLatencyHistogramAndBreakdown(t *testing.T) {
	w, vm, net, blk := buildL2(t, 0)
	p, _ := ProfileByName("Netperf RR")
	res, err := (&Runner{W: w, VM: vm, Net: net, Blk: blk, P: p}).Run(400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() != 400 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
	// Every RR transaction does at least one forwarded kick, so the fastest
	// transaction still exceeds the native work.
	if res.Latency.Min() < p.WorkCycles {
		t.Fatalf("min latency %v below native work %v", res.Latency.Min(), p.WorkCycles)
	}
	// Tail transactions stack several forwarded ops: the distribution has
	// real spread even if log2 buckets merge nearby quantiles.
	if res.Latency.Quantile(0.99) < res.Latency.Quantile(0.5) {
		t.Fatal("quantiles not monotone")
	}
	if res.Latency.Max() <= res.Latency.Min() {
		t.Fatal("fractional ops should spread per-transaction latency")
	}
	// Breakdown accounts all non-compute cycles.
	var attributed sim.Cycles
	for _, c := range res.Breakdown {
		attributed += c
	}
	virt := res.TotalCycles - sim.Cycles(res.Transactions)*p.WorkCycles
	if attributed != virt {
		t.Fatalf("breakdown sums to %v, virtualization cycles are %v", attributed, virt)
	}
	for _, key := range []string{"kick", "rx", "timer", "idle", "eoi"} {
		if res.Breakdown[key] == 0 {
			t.Errorf("breakdown missing %q cycles", key)
		}
	}
	if res.Breakdown["ipi"] != 0 {
		t.Error("RR profile sends no IPIs; breakdown disagrees")
	}
}

func TestJitterSeededDeterminism(t *testing.T) {
	p, _ := ProfileByName("Memcached")
	run := func(seed uint64) Result {
		w, vm, net, blk := buildL2(t, 0)
		res, err := (&Runner{W: w, VM: vm, Net: net, Blk: blk, P: p, RNG: sim.NewRNG(seed)}).Run(300)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(2)
	if a.TotalCycles != b.TotalCycles {
		t.Fatal("same seed diverged")
	}
	if a.TotalCycles == c.TotalCycles {
		t.Fatal("different seeds produced identical totals")
	}
	// Jitter is bounded: a few percent around the unjittered run.
	w, vm, net, blk := buildL2(t, 0)
	base, err := (&Runner{W: w, VM: vm, Net: net, Blk: blk, P: p}).Run(300)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(a.TotalCycles) / float64(base.TotalCycles)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("jittered/unjittered = %.3f, want within a few percent", ratio)
	}
}

func TestRunForAdvancesTimeAndFiresTimers(t *testing.T) {
	w, vm, net, blk := buildL2(t, core.FeaturesAll)
	start := w.Now()
	p, _ := ProfileByName("Netperf RR")
	const span = 50_000_000 // ~23ms of simulated time
	res, err := (&Runner{W: w, VM: vm, Net: net, Blk: blk, P: p}).RunFor(span)
	if err != nil {
		t.Fatal(err)
	}
	if w.Now() < start+span {
		t.Fatalf("timeline advanced only to %v", w.Now())
	}
	if res.Transactions == 0 {
		t.Fatal("no transactions completed")
	}
	// The profile arms timers; with the clock advancing they must fire and
	// be delivered directly (DVH direct timer delivery).
	if w.Host.Machine.Stats.Counter("dvh.vtimer.direct_deliveries") == 0 {
		t.Fatal("no timer interrupts fired during the timed run")
	}
	// Throughput consistency: transactions * cycles/txn ≈ span.
	approx := res.CyclesPerTxn * float64(res.Transactions)
	if approx < 0.9*span || approx > 1.1*float64(span)+res.CyclesPerTxn {
		t.Fatalf("accounted cycles %.0f inconsistent with span %d", approx, span)
	}
}

func TestRunForValidation(t *testing.T) {
	p, _ := ProfileByName("Hackbench")
	if _, err := (&Runner{P: p}).RunFor(1000); err == nil {
		t.Fatal("native RunFor accepted")
	}
	w, vm, _, blk := buildL2(t, 0)
	pr, _ := ProfileByName("Netperf RR")
	if _, err := (&Runner{W: w, VM: vm, P: pr}).RunFor(1000); err == nil {
		t.Fatal("RunFor without net device accepted")
	}
	pm, _ := ProfileByName("MySQL")
	if _, err := (&Runner{W: w, VM: vm, Net: blk, P: pm}).RunFor(1000); err == nil {
		t.Fatal("RunFor without blk device accepted")
	}
	// A span whose end overflows the timeline is refused by name, not run
	// as zero transactions with NaN results.
	w, vm, net, blk := buildL2(t, 0)
	r := &Runner{W: w, VM: vm, Net: net, Blk: blk, P: pr}
	if _, err := r.RunFor(1_000_000); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(^sim.Cycles(0))
	if err == nil {
		t.Fatalf("RunFor past the end of the timeline accepted: %d transactions, %v cycles/txn",
			res.Transactions, res.CyclesPerTxn)
	}
	if !strings.Contains(err.Error(), pr.Name) {
		t.Errorf("overflow error %q does not name the workload", err)
	}
	// A span that ends just short of the end of the timeline ends too: the
	// last transaction's advance saturates there instead of wrapping behind
	// the clock and looping forever.
	w, vm, net, blk = buildL2(t, 0)
	w.RunUntil(^sim.Time(0) - 100)
	r = &Runner{W: w, VM: vm, Net: net, Blk: blk, P: pr}
	if res, err := r.RunFor(50); err != nil || res.Transactions != 1 || w.Now() != ^sim.Time(0) {
		t.Fatalf("RunFor(50) at the end of the timeline: %d transactions, clock %d, error %v; want 1, the end, nil",
			res.Transactions, w.Now(), err)
	}
}

// TestRunAllocBudget pins what a runner allocates once its stack is warm: a
// small constant per run (the Breakdown map, event-queue growth), however
// many transactions it runs and timers it programs. The op-class ledgers,
// the counters, the exit contexts and the timer events, which carry their
// vCPU, allocate nothing. RunPeriodic, unjittered, allocates no more than
// Run: its period search and its snapshots live on the stack. Bytes and
// objects allocated are deterministic, so the budget holds on any host.
func TestRunAllocBudget(t *testing.T) {
	const (
		txns   = 1000
		perRun = 8
	)
	for _, features := range []core.Features{0, core.FeaturesAll} {
		for _, p := range Profiles() {
			w, vm, net, blk := buildL2(t, features)
			r := &Runner{W: w, VM: vm, Net: net, Blk: blk, P: p, RNG: sim.NewRNG(1)}
			span := sim.Cycles(txns) * p.WorkCycles
			// Warm: compile plans, grow the event queue and scheduler scratch.
			if _, err := r.Run(txns); err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunFor(span); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := r.Run(txns); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > perRun {
				t.Errorf("dvh=%v %s: Run(%d) allocates %.0f objects, budget %d",
					features != 0, p.Name, txns, allocs, perRun)
			}
			var ran int
			allocs = testing.AllocsPerRun(1, func() {
				res, err := r.RunFor(span)
				if err != nil {
					t.Fatal(err)
				}
				ran = res.Transactions
			})
			if allocs > perRun {
				t.Errorf("dvh=%v %s: RunFor (%d transactions) allocates %.0f objects, budget %d",
					features != 0, p.Name, ran, allocs, perRun)
			}
			r.RNG = nil
			run := testing.AllocsPerRun(1, func() {
				if _, err := r.Run(txns); err != nil {
					t.Fatal(err)
				}
			})
			periodic := testing.AllocsPerRun(1, func() {
				if _, _, err := r.RunPeriodic(txns); err != nil {
					t.Fatal(err)
				}
			})
			if periodic > run {
				t.Errorf("dvh=%v %s: RunPeriodic(%d) allocates %.0f objects, Run %.0f",
					features != 0, p.Name, txns, periodic, run)
			}
		}
	}
}
