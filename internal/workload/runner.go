package workload

import (
	"fmt"
	"sync"

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
	if err := r.simulate(&st, 0, n); err != nil {
		return Result{}, err
	}
	return st.finish(n), nil
}

// RunPeriodic returns exactly the Result that Run(n) returns, and leaves
// exactly Run(n)'s tables in the World's StageStats, but simulates only until
// the run repeats itself. It also returns how many transactions it simulated.
//
// The run's transaction shapes repeat with a period p after a warm-up
// (period). RunPeriodic simulates the warm-up and then whole periods, and
// snapshots the additive ledgers at each period boundary: the total and
// op-class cycles, the latency histogram, and every StageStats table, stage
// histogram and settle count. Once two consecutive periods have left equal
// deltas, and the second moved no histogram's min or max, it simulates the
// first (n-i) mod p transactions of the next period and adds the k whole
// periods left as k times the last period's delta. Histogram min and max are
// those of the simulated transactions.
//
// Exactness assumes that after the warm-up a transaction's cost depends only
// on its shape: its op counts and its vCPU. Two equal periods are evidence of
// that, not proof: a stack whose costs changed after them would defeat the
// check (DESIGN.md §17.1). The World's own Stats, counters and timeline are
// not extrapolated; they hold only the simulated transactions. A native run
// simulates nothing, and a jittered one never repeats, so both run as Run.
func (r *Runner) RunPeriodic(n int) (Result, int, error) {
	if r.VM == nil || r.RNG != nil || n <= 0 {
		res, err := r.Run(n)
		return res, res.Transactions, err
	}
	if err := r.validate(); err != nil {
		return Result{}, 0, err
	}
	warm, p := r.period(n)
	st := runState{r: r}
	if err := r.simulate(&st, 0, warm); err != nil {
		return Result{}, 0, err
	}
	// at[j%3] holds the ledgers at period boundary j, before transaction
	// warm + j*p.
	var at [3]snapshot
	for i, j := warm, 0; i < n; i, j = min(i+p, n), j+1 {
		st.snapshot(&at[j%3])
		if j >= 2 && repeats(&at[(j-2)%3], &at[(j-1)%3], &at[j%3]) {
			k, rem := (n-i)/p, (n-i)%p
			if err := r.simulate(&st, i, i+rem); err != nil {
				return Result{}, 0, err
			}
			st.addRepeats(&at[(j-1)%3], &at[j%3], uint64(k))
			return st.finish(n), i + rem, nil
		}
		if err := r.simulate(&st, i, min(i+p, n)); err != nil {
			return Result{}, 0, err
		}
	}
	return st.finish(n), n, nil
}

// simulate executes transactions [from, to).
func (r *Runner) simulate(st *runState, from, to int) error {
	for i := from; i < to; i++ {
		if _, err := r.transaction(st, i); err != nil {
			return err
		}
	}
	return nil
}

// Period search bounds: a period is at most maxPeriod transactions long, and
// the search reads the shapes of the first periodWindow transactions, which
// must hold the warm-up and two periods.
const (
	maxPeriod    = 64
	periodWindow = 3 * maxPeriod
)

// periodKey is everything a run's period depends on: the profile's op
// rates, the vCPU slots and the run length.
type periodKey struct {
	rates    [numOpClasses]float64
	slots, n int
}

// periods memoizes period, a pure function of its key, so sharing it across
// runs and tests cannot change a result: a process asks for the same few
// keys many times (an `nvbench -all` pass makes 112 calls for 7 keys). mu
// guards the map; pool workers share it.
var periods struct {
	mu sync.Mutex
	m  map[periodKey][2]int
}

// period returns the warm-up and the period of the run's transaction shapes
// over all n transactions (findPeriod), computed once per process for each
// periodKey.
func (r *Runner) period(n int) (warm, p int) {
	k := periodKey{slots: r.slots(), n: n, rates: [numOpClasses]float64{
		r.P.TxKicks, r.P.RxBatches, r.P.Timers, r.P.IPIs, r.P.Idles, r.P.EOIs, r.P.BlkOps}}
	periods.mu.Lock()
	got, ok := periods.m[k]
	periods.mu.Unlock()
	if !ok {
		got[0], got[1] = findPeriod(&r.P, k.slots, n)
		periods.mu.Lock()
		if periods.m == nil {
			periods.m = make(map[periodKey][2]int)
		}
		periods.m[k] = got
		periods.mu.Unlock()
	}
	return got[0], got[1]
}

// findPeriod returns the warm-up and the period of the transaction shapes of
// a run of n transactions of profile p over slots vCPUs: from transaction
// warm on, shape i+p equals shape i. A transaction's shape is what it does
// before it touches the World, its op count per class and its vCPU slot, so
// a period repeats the vCPU rotation too. The shapes come from fresh
// carries, without simulating, and only the window's are kept. Of the
// periods up to maxPeriod that repeat twice in the window, findPeriod takes
// the one with the least warm + 2p, then checks it over the rest of the
// run. Without one it returns warm = n and p = 0.
func findPeriod(prof *Profile, slots, n int) (warm, p int) {
	var shapes [periodWindow]uint64
	var carries [numOpClasses]carry
	m := min(n, periodWindow)
	for i := range m {
		s, ok := shapeOf(takeOps(&carries, prof), i%slots)
		if !ok {
			return n, 0
		}
		shapes[i] = s
	}
	warm, best := n, m+1
	for q := 1; q <= maxPeriod && 2*q < best; q++ {
		i := m - 1
		for i >= q && shapes[i] == shapes[i-q] {
			i--
		}
		if w := i - q + 1; w+2*q < best {
			warm, p, best = w, q, w+2*q
		}
	}
	if p == 0 {
		return n, 0
	}
	for i, j := m, warm+(m-warm)%p; i < n; i++ {
		s, ok := shapeOf(takeOps(&carries, prof), i%slots)
		if !ok || s != shapes[j] {
			return n, 0
		}
		if j++; j == warm+p {
			j = warm
		}
	}
	return warm, p
}

// shapeOf packs a transaction's op counts and vCPU slot into one word, a
// byte each; ok is false when one does not fit in a byte.
func shapeOf(ops [numOpClasses]int, slot int) (s uint64, ok bool) {
	if uint(slot) > 0xff {
		return 0, false
	}
	s = uint64(slot)
	for _, c := range ops {
		if uint(c) > 0xff {
			return 0, false
		}
		s = s<<8 | uint64(c)
	}
	return s, true
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
	r *Runner
	tally
	carries [numOpClasses]carry
	// ran marks the classes with at least one operation this run: exactly
	// those appear in Breakdown, even when their cycles sum to zero.
	ran [numOpClasses]bool
}

// tally is a run's own additive ledger: its total and op-class cycles and
// its latency histogram.
type tally struct {
	total   sim.Cycles
	cycles  [numOpClasses]sim.Cycles
	latency trace.Histogram
}

// addRepeats adds k times the change in t's ledgers from before to after.
func (t *tally) addRepeats(before, after *tally, k uint64) {
	t.total += sim.Cycles(k) * (after.total - before.total)
	for c := range t.cycles {
		t.cycles[c] += sim.Cycles(k) * (after.cycles[c] - before.cycles[c])
	}
	t.latency.AddRepeats(&before.latency, &after.latency, k)
}

// snapshot is every additive ledger of a run at one transaction boundary:
// the run's tally and a copy of the World's stage tables (zero when the
// World has none).
type snapshot struct {
	tally
	stages hyper.StageStats
}

// snapshot copies the run's ledgers into s.
func (st *runState) snapshot(s *snapshot) {
	s.tally = st.tally
	if ss := st.r.W.Stages; ss != nil {
		s.stages = *ss
	}
}

// addRepeats adds k repeats of the transactions run between snapshots
// before and after to the run's ledgers.
func (st *runState) addRepeats(before, after *snapshot, k uint64) {
	st.tally.addRepeats(&before.tally, &after.tally, k)
	if ss := st.r.W.Stages; ss != nil {
		ss.AddRepeats(&before.stages, &after.stages, k)
	}
}

// repeats reports whether the period from last to cur left exactly the
// deltas of the period from before to last and moved no histogram's min or
// max: whether last plus one more of its period's delta is cur.
func repeats(before, last, cur *snapshot) bool {
	next := *last
	next.tally.addRepeats(&before.tally, &last.tally, 1)
	next.stages.AddRepeats(&before.stages, &last.stages, 1)
	return next == *cur
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

// slots is how many vCPUs the run rotates through: transaction i runs on
// vCPU i mod slots.
func (r *Runner) slots() int { return min(r.P.Cores, len(r.VM.VCPUs)) }

// takeOps advances every class's carry by the profile's rate for one
// transaction and returns the transaction's op count per class.
func takeOps(carries *[numOpClasses]carry, p *Profile) [numOpClasses]int {
	return [numOpClasses]int{
		classKick:  carries[classKick].take(p.TxKicks),
		classRX:    carries[classRX].take(p.RxBatches),
		classTimer: carries[classTimer].take(p.Timers),
		classIPI:   carries[classIPI].take(p.IPIs),
		classIdle:  carries[classIdle].take(p.Idles),
		classEOI:   carries[classEOI].take(p.EOIs),
		classBlk:   carries[classBlk].take(p.BlkOps),
	}
}

// transaction executes one transaction and returns its cost.
func (r *Runner) transaction(st *runState, i int) (sim.Cycles, error) {
	p := &r.P
	w := r.W
	vcpus := r.VM.VCPUs
	txnStart := st.total
	v := vcpus[i%r.slots()]
	work := p.WorkCycles
	if r.RNG != nil {
		span := work * workJitterPermille / 1000
		work = work - span + r.RNG.Cyclesn(2*span+1)
	}
	st.total += work
	w.Host.Machine.Stats.ChargeGuest(work)

	ops := takeOps(&st.carries, p)
	for k := ops[classKick]; k > 0; k-- {
		c, err := w.Execute(v, hyper.DevNotify(r.Net.Doorbell))
		if err != nil {
			return 0, err
		}
		st.charge(classKick, c)
	}
	for k := ops[classRX]; k > 0; k-- {
		st.charge(classRX, w.DeviceRX(r.Net, v))
	}
	for k := ops[classTimer]; k > 0; k-- {
		c, err := w.Execute(v, hyper.ProgramTimer(uint64(w.Now())+1_000_000))
		if err != nil {
			return 0, err
		}
		st.charge(classTimer, c)
	}
	for k := ops[classIPI]; k > 0; k-- {
		dest := uint32((v.ID + 1) % len(vcpus))
		c, err := w.Execute(v, hyper.SendIPI(dest, apic.VectorReschedule))
		if err != nil {
			return 0, err
		}
		st.charge(classIPI, c)
	}
	for k := ops[classIdle]; k > 0; k-- {
		c, err := w.Execute(v, hyper.Halt())
		if err != nil {
			return 0, err
		}
		st.charge(classIdle, c+w.WakeIfIdle(v))
	}
	for k := ops[classEOI]; k > 0; k-- {
		c, err := w.Execute(v, hyper.EOI())
		if err != nil {
			return 0, err
		}
		st.charge(classEOI, c)
	}
	for k := ops[classBlk]; k > 0; k-- {
		c, err := w.Execute(v, hyper.DevNotify(r.Blk.Doorbell))
		if err != nil {
			return 0, err
		}
		st.charge(classBlk, c+w.DeliverDeviceIRQ(r.Blk, v))
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
// hrtimers armed by ProgramTimer operations fire mid-run. A firing delivers
// its interrupt, through the posted or injected path, only when it latches
// the timer vector into the LAPIC anew. Nothing outside tests acknowledges
// a delivered vector (LAPIC.Ack), so the first delivery on a vCPU leaves
// the vector pending, and every later firing on that vCPU coalesces into
// it and delivers nothing: a stack delivers one timer interrupt per timer
// vCPU in its lifetime (DESIGN.md §16). Run, by contrast, never
// advances the timeline, which suits pure cost measurement; RunFor is the
// mode for experiments about event interleaving.
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
		w.RunUntil(next)
	}
	return st.finish(n), nil
}
