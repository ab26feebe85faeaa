package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/migrate"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadDef is one set of inputs the benchmark runs; README.md says why
// each exists.
type workloadDef struct {
	name string
	// itersPerSecond is the run length: timed iterations per second of
	// -seconds, about what the reference host completes in a second.
	itersPerSecond float64
	// setup generates the inputs from the seed, loads the fixtures the ops
	// are checked against and prepares what the ops reuse.
	setup func(r *runner) (session, error)
}

// workloads are every workload, in the order a run of all of them takes.
var workloads = []*workloadDef{
	{"eval-all", 1, setupEvalAll},
	{"cell-sweep", 2, setupCellSweep},
	{"app-steady", 6, setupAppSteady},
	{"migrate-churn", 0.6, setupMigrateChurn},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns n scaled by the run's scale, at least lo.
func (r *runner) scaled(n, lo int) int {
	return max(lo, int(float64(n)*r.scale+0.5))
}

// shuffle permutes n indexes with the RNG.
func shuffle(rng *sim.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func fingerprint(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// expectations holds each op's expected fingerprint: the committed one for
// a committed (scale, seed), otherwise the one the first timed iteration
// produced, so every later iteration must reproduce it. Op i's entry is only
// ever read and written by the goroutine running op i.
type expectations struct {
	keys, want []string
}

func (r *runner) expectations(name string, keys []string) (*expectations, error) {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(r.raw.fingerprints, &all); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	e := &expectations{keys: keys, want: make([]string, len(keys))}
	if committed := all[name][fingerprintKey(r.scale, r.seed)]; committed != nil {
		for i, k := range keys {
			if e.want[i] = committed[k]; e.want[i] == "" {
				return nil, fmt.Errorf("fingerprints.json: %s %s has no entry for op %q", name, fingerprintKey(r.scale, r.seed), k)
			}
		}
	}
	return e, nil
}

// check compares op i's fingerprint with its expectation, adopting it as
// the expectation when there is none yet.
func (e *expectations) check(o *opCtx, i int, got string) {
	switch {
	case e.want[i] == "":
		e.want[i] = got
	case e.want[i] != got:
		o.fail(fmt.Errorf("fingerprint %s, want %s", got, e.want[i]))
	}
}

func (e *expectations) byKey() map[string]string {
	m := make(map[string]string, len(e.keys))
	for i, k := range e.keys {
		m[k] = e.want[i]
	}
	return m
}

// fingerprintSeeds and fingerprintScales are the committed fingerprint sets.
var (
	fingerprintSeeds  = []uint64{1, 2}
	fingerprintScales = []float64{1, tinyScale}
)

// generateFingerprints runs one timed iteration of app-steady and
// migrate-churn at every committed seed and each of the given scales, and
// collects the op fingerprints.
func generateFingerprints(base *runner, scales []float64) (map[string]map[string]map[string]string, error) {
	out := map[string]map[string]map[string]string{}
	for _, name := range []string{"app-steady", "migrate-churn"} {
		out[name] = map[string]map[string]string{}
		for _, scale := range scales {
			for _, seed := range fingerprintSeeds {
				r := &runner{config: config{workload: name, seed: seed, scale: scale}, width: base.width, raw: base.raw, log: base.log}
				r.raw.fingerprints = []byte("{}")
				sess, err := workloadByName(name).setup(r)
				if err != nil {
					return nil, err
				}
				it := &iteration{}
				if err := sess.iterate(it); err != nil {
					return nil, err
				}
				for _, op := range it.ops {
					if op.failed {
						return nil, fmt.Errorf("%s seed %d scale %g: op %s failed", name, seed, scale, op.name)
					}
				}
				out[name][fingerprintKey(scale, seed)] = sess.(interface{ expected() *expectations }).expected().byKey()
			}
		}
	}
	return out, nil
}

// ---- cell-sweep ----

type cellSweep struct {
	r   *runner
	ops []cell
}

// cellsPerIter is how many cells a cell-sweep iteration runs.
const cellsPerIter = 256

// drawCells picks n cells from the universe: the universe, in its canonical
// order, is cut into n equal strata and the seed picks one cell in each,
// then shuffles the picks. Every seed thus covers the universe evenly and
// its iterations cost about the same; only which cells and their order
// change.
func drawCells(universe []cell, n int, seed uint64) []cell {
	rng := sim.NewRNG(seed)
	n = min(n, len(universe))
	picks := make([]cell, n)
	for k := 0; k < n; k++ {
		lo, hi := k*len(universe)/n, (k+1)*len(universe)/n
		picks[k] = universe[lo+rng.Intn(hi-lo)]
	}
	out := make([]cell, n)
	for i, j := range shuffle(rng, n) {
		out[i] = picks[j]
	}
	return out
}

func setupCellSweep(r *runner) (session, error) {
	universe, err := parseCells(r.raw.cells)
	if err != nil {
		return nil, fmt.Errorf("cells.golden: %w", err)
	}
	s := &cellSweep{r: r, ops: drawCells(universe, r.scaled(cellsPerIter, 4), r.seed)}
	// Warm process-wide state with the first op of each kind.
	seen := map[string]bool{}
	var warm []cell
	for _, c := range s.ops {
		if !seen[c.kind] {
			seen[c.kind] = true
			warm = append(warm, c)
		}
	}
	r.sequential(len(warm), func(it *iteration, i int) { s.run(warm[i], r.op(it, i)) })
	return s, nil
}

func (s *cellSweep) iterate(it *iteration) error {
	it.ops = make([]opRecord, len(s.ops))
	s.r.timed(it, func() {
		s.r.forEach(len(s.ops), func(i int) { s.run(s.ops[i], s.r.op(it, i)) })
	})
	return nil
}

// runCell builds the cell's stack and makes the cell's run on it,
// returning the modeled cycles.
func runCell(c cell, o *opCtx) (*experiment.Stack, sim.Cycles, error) {
	var st *experiment.Stack
	err := o.layer("build", func() (float64, error) {
		var err error
		st, err = experiment.Build(c.spec)
		return 1, err
	})
	if err != nil {
		return nil, 0, err
	}
	var got sim.Cycles
	v := st.Target.VCPUs[0]
	for _, m := range workload.Micros() {
		if m.String() == c.kind {
			err := o.layer("micro", func() (float64, error) {
				var err error
				got, err = workload.RunMicro(st.World, v, m, st.Net, microIters)
				return microIters, err
			})
			return st, got, err
		}
	}
	for _, sm := range workload.Storms() {
		if sm.String() == c.kind {
			err := o.layer("storm", func() (float64, error) {
				var err error
				got, err = workload.RunStorm(st.World, v, sm, stormEvents)
				return stormEvents, err
			})
			return st, got, err
		}
	}
	return st, 0, fmt.Errorf("unknown cell kind %q", c.kind)
}

// microIters and stormEvents are the run lengths nvbench uses for Table 3
// and the delivery storms.
const (
	microIters  = 16
	stormEvents = 64
)

func (s *cellSweep) run(c cell, o *opCtx) {
	o.begin(c.key())
	defer o.end()
	st, got, err := runCell(c, o)
	if err != nil {
		o.fail(err)
		return
	}
	if got != c.cycles {
		o.fail(fmt.Errorf("%d cycles, golden %d", uint64(got), uint64(c.cycles)))
	}
	if o.r.traced {
		o.rec.simExits = st.Machine.Stats.TotalHardwareExits()
		o.rec.plan = planOf(st)
	}
}

func planOf(st *experiment.Stack) planCounts {
	p := st.World.Plan
	return planCounts{p.Compiles, p.Replays, p.DeliveryCompiles, p.DeliveryReplays, p.Invalidations}
}

func (p planCounts) minus(q planCounts) planCounts {
	return planCounts{p.compiles - q.compiles, p.replays - q.replays, p.deliveryCompiles - q.deliveryCompiles,
		p.deliveryReplays - q.deliveryReplays, p.invalidations - q.invalidations}
}

// cellUniverse lists every cell, its cycles not yet run: every Spec Build
// accepts over the registered profiles, depths 1-4, I/O modes, guest kinds
// and enlightenment, times every cell kind.
func cellUniverse() []cell {
	var universe []cell
	for _, p := range profile.Names() {
		for depth := 1; depth <= 4; depth++ {
			for _, io := range ioModes {
				for _, g := range guests {
					for _, enl := range []bool{false, true} {
						spec := experiment.Spec{Profile: p, Depth: depth, IO: io, Guest: g.kind, Enlightened: enl}
						if _, err := experiment.Build(spec); err != nil {
							continue
						}
						for _, k := range cellKinds {
							universe = append(universe, cell{spec: spec, kind: k})
						}
					}
				}
			}
		}
	}
	return universe
}

// runCells runs each cell on a pool of the given width and sets its
// cycles.
func runCells(cells []cell, width int) error {
	r := &runner{width: width}
	it := &iteration{ops: make([]opRecord, len(cells))}
	errs := make([]error, len(cells))
	r.forEach(len(cells), func(i int) {
		_, cells[i].cycles, errs[i] = runCell(cells[i], r.op(it, i))
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cell %s: %w", cells[i].key(), err)
		}
	}
	return nil
}

// ---- app-steady ----

// appStack is one prebuilt app-steady configuration.
type appStack struct {
	label string
	spec  experiment.Spec
}

var appStacks = []appStack{
	{"VM", experiment.Spec{Depth: 1, IO: experiment.IOParavirt}},
	{"Nested VM", experiment.Spec{Depth: 2, IO: experiment.IOParavirt}},
	{"Nested VM+DVH", experiment.Spec{Depth: 2, IO: experiment.IODVH}},
	{"L3", experiment.Spec{Depth: 3, IO: experiment.IOParavirt}},
	{"L3+DVH", experiment.Spec{Depth: 3, IO: experiment.IODVH}},
	{"Nested VM (Xen)+DVH-VP", experiment.Spec{Depth: 2, IO: experiment.IODVHVP, Guest: experiment.GuestXen}},
}

// appTxns is the Runner.Run length of one app-steady op; RunFor then runs
// for the simulated time the same count takes natively.
const appTxns = 3000

type appOp struct {
	profile workload.Profile
	rngSeed uint64
}

// appLanes is how many prebuilt stacks each configuration gets. Its shuffled
// op sequence is split across them, so the pool hands out 12 lanes rather
// than 6 and balances the two workers even when one CPU runs slower.
const appLanes = 2

// appLane is one prebuilt stack and the ops that run on it, in order. A
// world is single-threaded, so a lane runs on one worker at a time.
type appLane struct {
	cfg   appStack
	st    *experiment.Stack
	ops   []appOp
	first int // index of ops[0] among all the workload's ops
}

type appSteady struct {
	r     *runner
	lanes []*appLane
	// order lists the lanes longest-running first (as timed in set-up), so
	// the pool's greedy hand-out gives both workers equal shares and the
	// iteration's wall time does not hinge on which lane starts last.
	order  []int
	nOps   int
	txns   int
	expect *expectations
}

func (s *appSteady) expected() *expectations { return s.expect }

func setupAppSteady(r *runner) (session, error) {
	s := &appSteady{r: r, txns: r.scaled(appTxns, 16)}
	profiles := workload.Profiles()
	rng := sim.NewRNG(r.seed)
	var keys []string
	for _, cfg := range appStacks {
		var seq []appOp
		for _, p := range shuffle(rng, len(profiles)) {
			seq = append(seq, appOp{profile: profiles[p], rngSeed: rng.Uint64()})
		}
		for l := 0; l < appLanes; l++ {
			lane := &appLane{cfg: cfg, ops: seq[l*len(seq)/appLanes : (l+1)*len(seq)/appLanes], first: len(keys)}
			for _, op := range lane.ops {
				keys = append(keys, cfg.label+"/"+op.profile.Name)
			}
			s.lanes = append(s.lanes, lane)
		}
	}
	s.nOps = len(keys)
	exp, err := r.expectations("app-steady", keys)
	if err != nil {
		return nil, err
	}
	s.expect = exp
	// Build every lane's stack, then warm it with one untimed pass of its
	// op sequence: plans compile and the timers left pending by RunFor reach
	// the state every later pass starts from.
	var buildErr error
	r.sequential(len(s.lanes), func(it *iteration, i int) {
		lane := s.lanes[i]
		o := r.op(it, i)
		o.begin("build " + lane.cfg.label)
		defer o.end()
		if err := o.layer("build", func() (float64, error) {
			var err error
			lane.st, err = experiment.Build(lane.cfg.spec)
			return 1, err
		}); err != nil && buildErr == nil {
			buildErr = fmt.Errorf("%s: %w", lane.cfg.label, err)
		}
	})
	if buildErr != nil {
		return nil, buildErr
	}
	cost := make([]time.Duration, len(s.lanes))
	warm := &iteration{index: -1, ops: make([]opRecord, s.nOps)}
	r.sequential(len(s.lanes), func(_ *iteration, i int) {
		start := time.Now()
		s.runLane(warm, s.lanes[i], false)
		cost[i] = time.Since(start)
	})
	for _, op := range warm.ops {
		r.setupSpans = append(r.setupSpans, op.spans...)
	}
	s.order = make([]int, len(s.lanes))
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool { return cost[s.order[a]] > cost[s.order[b]] })
	return s, nil
}

func (s *appSteady) iterate(it *iteration) error {
	it.ops = make([]opRecord, s.nOps)
	s.r.timed(it, func() {
		s.r.forEach(len(s.order), func(j int) { s.runLane(it, s.lanes[s.order[j]], true) })
	})
	return nil
}

func (s *appSteady) runLane(it *iteration, lane *appLane, check bool) {
	for k, op := range lane.ops {
		idx := lane.first + k
		s.runOp(lane.st, lane.cfg.label, op, s.r.op(it, idx), idx, check)
	}
}

func (s *appSteady) runOp(st *experiment.Stack, label string, op appOp, o *opCtx, idx int, check bool) {
	o.begin(label + "/" + op.profile.Name)
	defer o.end()
	before := planOf(st)
	stats := st.Machine.Stats
	r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: op.profile, RNG: sim.NewRNG(op.rngSeed)}

	// Stats are reset per phase so each phase's accounting stands alone.
	stats.Reset()
	var run workload.Result
	err := o.layer("runner.run", func() (float64, error) {
		var err error
		run, err = r.Run(s.txns)
		return float64(run.Transactions), err
	})
	if err != nil {
		o.fail(err)
		return
	}
	if run.TotalCycles != stats.TotalCycles() {
		o.fail(fmt.Errorf("Run returned %d cycles, machine accounted %d", uint64(run.TotalCycles), uint64(stats.TotalCycles())))
	}
	runStats, runExits := stats.String(), stats.TotalHardwareExits()

	stats.Reset()
	var runFor workload.Result
	err = o.layer("runner.runfor", func() (float64, error) {
		var err error
		runFor, err = r.RunFor(sim.Cycles(s.txns) * op.profile.WorkCycles)
		return float64(runFor.Transactions), err
	})
	if err != nil {
		o.fail(err)
		return
	}
	if o.r.traced {
		o.rec.simExits = runExits + stats.TotalHardwareExits()
		o.rec.plan = planOf(st).minus(before)
	}
	if check {
		s.expect.check(o, idx, fingerprint(resultPrint(run), runStats, resultPrint(runFor), stats.String()))
	}
}

// resultPrint renders every field of a runner result, latency quantiles and
// the per-class breakdown in sorted order.
func resultPrint(r workload.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "txns=%d total=%d cpt=%.6f overhead=%.6f score=%.6f", r.Transactions, uint64(r.TotalCycles), r.CyclesPerTxn, r.Overhead, r.Score)
	l := &r.Latency
	fmt.Fprintf(&b, " lat n=%d mean=%.3f min=%d p50=%d p90=%d p99=%d max=%d", l.Count(), l.Mean(), uint64(l.Min()),
		uint64(l.Quantile(0.5)), uint64(l.Quantile(0.9)), uint64(l.Quantile(0.99)), uint64(l.Max()))
	classes := make([]string, 0, len(r.Breakdown))
	for c := range r.Breakdown {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, " %s=%d", c, uint64(r.Breakdown[c]))
	}
	return b.String()
}

// ---- migrate-churn ----

// migConfig is one of the Section 4 migration configurations.
type migConfig struct {
	label string
	spec  experiment.Spec
	// vp migrates the nested VM with its virtual-passthrough NIC through
	// the PCI migration capability (the only configuration with DMA dirt).
	vp bool
	// whole migrates the L1 VM together with its guest hypervisor.
	whole bool
}

var migConfigs = []migConfig{
	{"VM", experiment.Spec{Depth: 1, IO: experiment.IOParavirt}, false, false},
	{"Nested VM (paravirt)", experiment.Spec{Depth: 2, IO: experiment.IOParavirt}, false, false},
	{"Nested VM (DVH)", experiment.Spec{Depth: 2, IO: experiment.IODVH}, true, false},
	{"Nested VM + guest hypervisor", experiment.Spec{Depth: 2, IO: experiment.IODVH}, false, true},
}

// migrate-churn's working sets at scale 1 fall in migStrata strata of
// doubling size, from migMinPages up to 32 times that: 1k-32k pages.
const (
	migMinPages = 1024
	migStrata   = 5
)

// Section 4's churn: the rates the guest's CPUs and the passthrough NIC's
// DMA dirty pages at.
const (
	migCPURate = 1200
	migDMARate = 600
)

type migOp struct {
	cfg   migConfig
	churn migrate.Churn
}

func (m migOp) key() string {
	return fmt.Sprintf("%s ws=%d cpu=%.3f dma=%.3f", m.cfg.label, m.churn.WorkingSetPages, m.churn.CPUPagesPerSec, m.churn.DMAPagesPerSec)
}

type migrateChurn struct {
	r   *runner
	ops []migOp
	// alone is how many of the first ops run one at a time: the top
	// stratum's. Two of those side by side hold over a gigabyte.
	alone  int
	expect *expectations
}

func (s *migrateChurn) expected() *expectations { return s.expect }

// drawMigrations makes one op per (configuration, working-set stratum).
// Stratum k spans [a, 2a] pages with a = migMinPages·2^k, cut into one slot
// per configuration. The seed deals the slots out to the configurations,
// places each working set within ±1/32 of a of its slot's middle, and draws
// the CPU and DMA dirty rates within ±25% of Section 4's churn, the CPU
// rates in antithetic pairs (one configuration's offset up, its partner's
// the same offset down). So every seed migrates nearly the same number of
// pages at the same total rate, and its largest migration is nearly the
// same size: iterations of two seeds differ in their inputs, not in how
// much work or memory they take. The ops are ordered largest working set
// first, so the top stratum comes first and the pool's greedy hand-out ends
// each iteration on small ops, with both workers finishing together.
func drawMigrations(seed uint64, scale float64) []migOp {
	rng := sim.NewRNG(seed)
	lo := max(64, int(migMinPages*scale))
	n := len(migConfigs)
	var ops []migOp
	for k := 0; k < migStrata; k++ {
		a := float64(lo << k)
		slots := shuffle(rng, n)
		var v float64
		for i, cfg := range migConfigs {
			if i%2 == 0 {
				v = 2*rng.Float64() - 1
			} else {
				v = -v
			}
			pos := (float64(slots[i])+0.5)/float64(n) + (rng.Float64()-0.5)/16
			churn := migrate.Churn{
				WorkingSetPages: int(a * (1 + pos)),
				CPUPagesPerSec:  migCPURate * (1 + 0.25*v),
			}
			if cfg.vp {
				churn.DMAPagesPerSec = migDMARate * (1 + 0.25*(2*rng.Float64()-1))
			}
			ops = append(ops, migOp{cfg, churn})
		}
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].churn.WorkingSetPages > ops[b].churn.WorkingSetPages })
	return ops
}

func setupMigrateChurn(r *runner) (session, error) {
	s := &migrateChurn{r: r, ops: drawMigrations(r.seed, r.scale)}
	top := max(64, int(migMinPages*r.scale)) << (migStrata - 1)
	for s.alone < len(s.ops) && s.ops[s.alone].churn.WorkingSetPages >= top {
		s.alone++
	}
	keys := make([]string, len(s.ops))
	for i, op := range s.ops {
		keys[i] = fmt.Sprintf("%02d %s", i, op.key())
	}
	exp, err := r.expectations("migrate-churn", keys)
	if err != nil {
		return nil, err
	}
	s.expect = exp
	// Warm with each configuration's smallest migration.
	smallest := map[string]migOp{}
	for _, op := range s.ops {
		if w, ok := smallest[op.cfg.label]; !ok || op.churn.WorkingSetPages < w.churn.WorkingSetPages {
			smallest[op.cfg.label] = op
		}
	}
	var warm []migOp
	for _, cfg := range migConfigs {
		if op, ok := smallest[cfg.label]; ok {
			warm = append(warm, op)
		}
	}
	r.sequential(len(warm), func(it *iteration, i int) { s.run(warm[i], r.op(it, i), -1) })
	return s, nil
}

func (s *migrateChurn) iterate(it *iteration) error {
	it.ops = make([]opRecord, len(s.ops))
	s.r.timed(it, func() {
		for i := 0; i < s.alone; i++ {
			s.run(s.ops[i], s.r.op(it, i), i)
		}
		s.r.forEach(len(s.ops)-s.alone, func(i int) {
			i += s.alone
			s.run(s.ops[i], s.r.op(it, i), i)
		})
	})
	return nil
}

// run migrates one VM between two freshly built stacks and verifies the
// destination; idx < 0 skips the fingerprint check (warm-up).
func (s *migrateChurn) run(m migOp, o *opCtx, idx int) {
	o.begin(m.key())
	defer o.end()
	var src, dst *experiment.Stack
	for _, st := range []**experiment.Stack{&src, &dst} {
		err := o.layer("build", func() (float64, error) {
			var err error
			*st, err = experiment.Build(m.cfg.spec)
			return 1, err
		})
		if err != nil {
			o.fail(err)
			return
		}
	}
	plan := &migrate.Plan{VM: src.Target, Dest: dst.Target, Churn: m.churn}
	if m.cfg.whole {
		plan.VM, plan.Dest = src.VMs[0], dst.VMs[0]
	}
	if m.cfg.vp {
		vp, ok := src.DVH.VPStateOf(src.Net)
		if !ok {
			o.fail(fmt.Errorf("DVH stack without VP state"))
			return
		}
		plan.VP, plan.UseMigrationCap = []*core.VPState{vp}, true
	}
	var rep migrate.Report
	err := o.layer("migrate.run", func() (float64, error) {
		var err error
		rep, err = plan.Run()
		return float64(rep.PagesSent), err
	})
	if err != nil {
		o.fail(err)
		return
	}
	var bad []uint64
	err = o.layer("migrate.verify", func() (float64, error) {
		pages, err := plan.VerifyDest()
		for _, p := range pages {
			bad = append(bad, uint64(p))
		}
		return 1, err
	})
	if err != nil {
		o.fail(err)
		return
	}
	if len(bad) > 0 {
		o.fail(fmt.Errorf("destination differs on %d pages", len(bad)))
	}
	if plan.UseMigrationCap && rep.MissedDMAPages != 0 {
		o.fail(fmt.Errorf("%d DMA-dirtied pages missed", rep.MissedDMAPages))
	}
	o.rec.rounds, o.rec.pages = uint64(rep.Rounds), rep.PagesSent
	if idx >= 0 {
		s.expect.check(o, idx, fingerprint(rep.Rounds, rep.PagesSent, rep.BytesSent, rep.TotalTime, rep.Downtime, rep.DeviceStateBytes, rep.MissedDMAPages))
	}
}
