package workload

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/hyper"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Runner drives one application profile against one VM configuration. A nil
// VM runs the profile "natively": pure compute, no virtualization events.
type Runner struct {
	W  *hyper.World
	VM *hyper.VM
	// Net and Blk are the VM's I/O devices; Net is required whenever the
	// profile has network activity, Blk whenever it has block activity.
	Net *hyper.AssignedDevice
	Blk *hyper.AssignedDevice
	P   Profile
	// RNG, when non-nil, jitters per-transaction work by a few percent to
	// model run-to-run measurement variation — what makes the paper's
	// artifact methodology (many runs, best average; Appendix A.6)
	// meaningful to reproduce.
	RNG *sim.RNG
}

// workJitterPermille bounds the ± work variation applied per transaction.
const workJitterPermille = 30

// Result summarizes a run.
type Result struct {
	Profile Profile
	// Transactions executed.
	Transactions int
	// TotalCycles across the run (per driving core).
	TotalCycles sim.Cycles
	// CyclesPerTxn is the average cost of a transaction including
	// virtualization events.
	CyclesPerTxn float64
	// Overhead is CyclesPerTxn / native WorkCycles — the quantity the
	// paper's Figures 7, 9 and 10 plot (1.0 = native speed).
	Overhead float64
	// Score is the projected benchmark metric in Profile.Unit.
	Score float64
	// Latency is the per-transaction cost distribution; tail quantiles show
	// the transactions that hit expensive forwarded paths.
	Latency trace.Histogram
	// Breakdown attributes virtualization cycles to the operation class that
	// spent them — the per-mechanism view behind Figure 8.
	Breakdown map[string]sim.Cycles
}

// carry implements deterministic fractional op scheduling: an op with rate
// 0.3/txn fires on the transactions where the accumulated rate crosses an
// integer.
type carry struct{ acc float64 }

func (c *carry) take(rate float64) int {
	c.acc += rate
	n := int(c.acc)
	c.acc -= float64(n)
	return n
}

// Run executes n transactions and returns the summary.
func (r *Runner) Run(n int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("workload %s: need a positive transaction count", r.P.Name)
	}
	p := r.P
	res := Result{Profile: p, Transactions: n}

	if r.VM == nil {
		// Native execution: the access mix costs only its (tiny) user/kernel
		// work, already folded into WorkCycles.
		res.TotalCycles = sim.Cycles(n) * p.WorkCycles
		res.CyclesPerTxn = float64(p.WorkCycles)
		res.Overhead = 1.0
		res.Score = p.NativeScore
		return res, nil
	}
	if err := r.validate(); err != nil {
		return Result{}, err
	}

	st := runState{r: r}
	for i := 0; i < n; i++ {
		if _, err := r.transaction(&st, i); err != nil {
			return Result{}, err
		}
	}
	return st.finish(n), nil
}

// validate checks the shared preconditions of a VM Run and RunFor: the
// profile drives at least one core and does some work per transaction (so
// Overhead and Score are finite), and its I/O activity has devices to land
// on.
func (r *Runner) validate() error {
	if r.P.Cores < 1 {
		return fmt.Errorf("workload %s: profile drives %d cores, need at least 1", r.P.Name, r.P.Cores)
	}
	if r.P.WorkCycles == 0 {
		return fmt.Errorf("workload %s: profile has zero work cycles per transaction", r.P.Name)
	}
	if (r.P.TxKicks > 0 || r.P.RxBatches > 0) && r.Net == nil {
		return fmt.Errorf("workload %s: profile has network activity but no net device", r.P.Name)
	}
	if r.P.BlkOps > 0 && r.Blk == nil {
		return fmt.Errorf("workload %s: profile has block activity but no blk device", r.P.Name)
	}
	return nil
}

// opClass is the operation class a transaction's virtualization cycles are
// attributed to in Result.Breakdown.
type opClass uint8

const (
	classKick opClass = iota
	classRX
	classTimer
	classIPI
	classIdle
	classEOI
	classBlk
	numOpClasses
)

// opClassNames are the Breakdown keys, indexed by opClass.
var opClassNames = [numOpClasses]string{"kick", "rx", "timer", "ipi", "idle", "eoi", "blk"}

// runState carries the per-run accumulators shared by Run and RunFor. The
// per-class ledger is a fixed array: transactions add into it without
// hashing, and finish turns it into Result.Breakdown once per run.
type runState struct {
	r       *Runner
	total   sim.Cycles
	latency trace.Histogram
	carries [numOpClasses]carry
	cycles  [numOpClasses]sim.Cycles
	// ran marks the classes with at least one operation this run: exactly
	// those appear in Breakdown, even when their cycles sum to zero.
	ran [numOpClasses]bool
}

// charge attributes one operation's cycles to its class.
func (st *runState) charge(c opClass, cycles sim.Cycles) {
	st.total += cycles
	st.cycles[c] += cycles
	st.ran[c] = true
}

func (st *runState) finish(n int) Result {
	p := st.r.P
	res := Result{Profile: p, Transactions: n, TotalCycles: st.total, Latency: st.latency}
	res.CyclesPerTxn = float64(st.total) / float64(n)
	res.Overhead = res.CyclesPerTxn / float64(p.WorkCycles)
	if p.HigherIsBetter {
		res.Score = p.NativeScore / res.Overhead
	} else {
		res.Score = p.NativeScore * res.Overhead
	}
	res.Breakdown = make(map[string]sim.Cycles, numOpClasses)
	for c, ran := range st.ran {
		if ran {
			res.Breakdown[opClassNames[c]] = st.cycles[c]
		}
	}
	return res
}

// transaction executes one transaction and returns its cost.
func (r *Runner) transaction(st *runState, i int) (sim.Cycles, error) {
	p := &r.P
	w := r.W
	vcpus := r.VM.VCPUs
	txnStart := st.total
	v := vcpus[i%min(p.Cores, len(vcpus))]
	work := p.WorkCycles
	if r.RNG != nil {
		span := work * workJitterPermille / 1000
		work = work - span + r.RNG.Cyclesn(2*span+1)
	}
	st.total += work
	w.Host.Machine.Stats.ChargeGuest(work)

	for k := st.carries[classKick].take(p.TxKicks); k > 0; k-- {
		c, err := w.Execute(v, hyper.DevNotify(r.Net.Doorbell))
		if err != nil {
			return 0, err
		}
		st.charge(classKick, c)
	}
	for k := st.carries[classRX].take(p.RxBatches); k > 0; k-- {
		c, err := w.DeviceRX(r.Net, v)
		if err != nil {
			return 0, err
		}
		st.charge(classRX, c)
	}
	for k := st.carries[classTimer].take(p.Timers); k > 0; k-- {
		c, err := w.Execute(v, hyper.ProgramTimer(uint64(w.Now())+1_000_000))
		if err != nil {
			return 0, err
		}
		st.charge(classTimer, c)
	}
	for k := st.carries[classIPI].take(p.IPIs); k > 0; k-- {
		dest := uint32((v.ID + 1) % len(vcpus))
		c, err := w.Execute(v, hyper.SendIPI(dest, apic.VectorReschedule))
		if err != nil {
			return 0, err
		}
		st.charge(classIPI, c)
	}
	for k := st.carries[classIdle].take(p.Idles); k > 0; k-- {
		c, err := w.Execute(v, hyper.Halt())
		if err != nil {
			return 0, err
		}
		wake, err := w.WakeIfIdle(v)
		if err != nil {
			return 0, err
		}
		st.charge(classIdle, c+wake)
	}
	for k := st.carries[classEOI].take(p.EOIs); k > 0; k-- {
		c, err := w.Execute(v, hyper.EOI())
		if err != nil {
			return 0, err
		}
		st.charge(classEOI, c)
	}
	for k := st.carries[classBlk].take(p.BlkOps); k > 0; k-- {
		c, err := w.Execute(v, hyper.DevNotify(r.Blk.Doorbell))
		if err != nil {
			return 0, err
		}
		irq, err := w.DeliverDeviceIRQ(r.Blk, v)
		if err != nil {
			return 0, err
		}
		st.charge(classBlk, c+irq)
	}
	cost := st.total - txnStart
	st.latency.Observe(cost)
	return cost, nil
}

// setupHalt idles v with a HLT that puts it into the state a measured
// operation assumes (a wake, a delivery to a halted vCPU). The halt's cost is
// not part of any metric, so it runs with the world's StageStats detached,
// and the sink is back in place when setupHalt returns: a sink observes
// exactly the measured operations.
func setupHalt(w *hyper.World, v *hyper.VCPU) error {
	ss := w.Stages
	w.Stages = nil
	_, err := w.Execute(v, hyper.Halt())
	w.Stages = ss
	return err
}

// RunMicro measures one Table 1 microbenchmark on a vCPU, returning the
// average cost in cycles over iters iterations (the paper reports cycles, so
// no throughput conversion is involved). SendIPI's per-iteration halt of its
// destination is setup (setupHalt), excluded from the metric like Table 1's.
func RunMicro(w *hyper.World, v *hyper.VCPU, m Micro, net *hyper.AssignedDevice, iters int) (sim.Cycles, error) {
	if iters <= 0 {
		return 0, fmt.Errorf("workload %v: need a positive iteration count, got %d", m, iters)
	}
	var total sim.Cycles
	for i := 0; i < iters; i++ {
		var op hyper.Op
		switch m {
		case MicroHypercall:
			op = hyper.Hypercall()
		case MicroDevNotify:
			if net == nil {
				return 0, fmt.Errorf("workload: DevNotify microbenchmark needs a net device")
			}
			op = hyper.DevNotify(net.Doorbell)
		case MicroProgramTimer:
			op = hyper.ProgramTimer(uint64(w.Now()) + 1_000_000)
		case MicroSendIPI:
			// Table 1: the destination vCPU is idle and must be woken. The
			// halt that idles it is setup, so the stage sink does not see it.
			dest := v.VM.VCPUs[(v.ID+1)%len(v.VM.VCPUs)]
			if err := setupHalt(w, dest); err != nil {
				return 0, err
			}
			op = hyper.SendIPI(uint32(dest.ID), apic.VectorReschedule)
		default:
			return 0, fmt.Errorf("workload: unknown microbenchmark %v", m)
		}
		c, err := w.Execute(v, op)
		if err != nil {
			return 0, err
		}
		if m == MicroSendIPI {
			// The halt's own cost is not part of the send+receive metric.
			dest := v.VM.VCPUs[(v.ID+1)%len(v.VM.VCPUs)]
			if dest.Idle {
				return 0, fmt.Errorf("workload: SendIPI did not wake the destination")
			}
		}
		total += c
	}
	return total / sim.Cycles(iters), nil
}

// RunFor drives the workload for a span of *simulated time*: transactions
// execute back to back while the World's timeline advances with them, so
// hrtimers armed by ProgramTimer operations genuinely fire mid-run and
// deliver their interrupts through the posted or injected paths. Run, by
// contrast, never advances the timeline, which suits pure cost measurement;
// RunFor is the mode for experiments about event interleaving.
func (r *Runner) RunFor(duration sim.Cycles) (Result, error) {
	if r.VM == nil {
		return Result{}, fmt.Errorf("workload: RunFor needs a VM (native runs have no event timeline)")
	}
	if duration == 0 {
		return Result{}, fmt.Errorf("workload %s: RunFor needs a positive duration", r.P.Name)
	}
	if err := r.validate(); err != nil {
		return Result{}, err
	}
	w := r.W
	start := w.Now()
	end := start + duration
	if end < start {
		return Result{}, fmt.Errorf("workload %s: RunFor of %d cycles from time %d overflows the timeline",
			r.P.Name, uint64(duration), uint64(start))
	}
	st := runState{r: r}
	n := 0
	for w.Now() < end {
		cost, err := r.transaction(&st, n)
		if err != nil {
			return Result{}, err
		}
		if cost == 0 {
			cost = 1 // a zero-cost transaction cannot advance time
		}
		n++
		// Advance the timeline past this transaction, firing the timers
		// that fall inside it; the advance saturates at the end of the
		// timeline rather than wrapping behind the clock.
		next := w.Now() + cost
		if next < cost {
			next = ^sim.Time(0)
		}
		if err := w.RunUntil(next); err != nil {
			return Result{}, fmt.Errorf("workload %s: timer delivery mid-run: %w", r.P.Name, err)
		}
	}
	return st.finish(n), nil
}
