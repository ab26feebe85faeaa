package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/parallel"
)

// config is one benchmark invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	traceDir string
	// tools is the directory holding the nvbench and nvperf binaries.
	tools string
}

func (c *config) tool(name string) string { return filepath.Join(c.tools, name) }

// setupReps is how many times an untraced run performs its set-up; setup_s
// is the median, which keeps one slow start from moving the metric.
const setupReps = 7

// minIters is the fewest timed iterations a run makes, however short: the
// fingerprint check needs two, and so does a traced run, which alternates
// untraced and traced iterations.
const minIters = 2

// runner executes one workload and owns the recording state its ops write.
type runner struct {
	config
	// width is the worker count of the harness pool and GOMAXPROCS.
	width int
	raw   rawFixtures
	// t0 is the run's start; span times are offsets from it.
	t0 time.Time
	// traced makes ops record layer spans and counters; measureAlloc also
	// records the bytes each span allocates, which is exact only while a
	// single goroutine runs (the sequential set-up).
	traced, measureAlloc bool
	// setupSpans are the layer spans of the (traced) set-up.
	setupSpans []span
	// ref times the host's speed before each set-up and iteration.
	ref *refProbe
	// failures counts op failures reported so far, to cap the log.
	failures atomic.Int64
	log      io.Writer
}

// defaultWidth is the harness pool width: two workers, or one on a
// single-CPU host.
func defaultWidth() int { return min(2, runtime.NumCPU()) }

// span is one timed call into a layer, recorded by the benchmark's own code.
type span struct {
	name       string
	start, end time.Duration
	// units is the work the call did: transactions, iterations, events or
	// pages, depending on the layer.
	units float64
	// alloc is the bytes the call allocated, or -1 when not measured.
	alloc int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// opRecord is what one op leaves behind in one iteration.
type opRecord struct {
	name       string
	start, end time.Duration
	failed     bool
	spans      []span
	// Deterministic counters, read after the op when tracing.
	simExits  uint64
	plan      planCounts
	rounds    uint64
	pages     uint64
	heapBytes uint64 // live heap objects at the op's end
}

// planCounts mirrors hyper.PlanCacheStats as a delta.
type planCounts struct {
	compiles, replays, deliveryCompiles, deliveryReplays, invalidations uint64
}

// iteration is one timed pass over every op of a workload.
type iteration struct {
	index  int
	traced bool
	start  time.Duration
	// ref is the reference probe's time just before the iteration.
	ref   time.Duration
	wall  time.Duration
	cpu   time.Duration
	alloc float64 // bytes allocated
	// rssKB is the peak RSS during the iteration: the benchmark process's
	// own, or for eval-all the child's.
	rssKB float64
	// Go runtime activity during the iteration.
	gcCount, gcPauseNs, gcCPU, totalCPU float64
	ops                                 []opRecord
}

// session is a workload after set-up, ready to run timed iterations.
type session interface {
	iterate(it *iteration) error
}

// op returns the context an op of iteration it records into.
func (r *runner) op(it *iteration, i int) *opCtx {
	return &opCtx{r: r, rec: &it.ops[i]}
}

// opCtx records one op's outcome and, when tracing, its layer spans.
type opCtx struct {
	r   *runner
	rec *opRecord
}

func (o *opCtx) begin(name string) {
	o.rec.name = name
	o.rec.start = time.Since(o.r.t0)
}

func (o *opCtx) end() {
	o.rec.end = time.Since(o.r.t0)
	if o.r.traced {
		o.rec.heapBytes = readMetric("/memory/classes/heap/objects:bytes")
	}
}

// fail records a failed op. The error is logged, not returned: one failure
// must not stop the pool from running and counting the rest.
func (o *opCtx) fail(err error) {
	o.rec.failed = true
	o.r.logFailure(o.rec.name, err)
}

func (r *runner) logFailure(name string, err error) {
	if n := r.failures.Add(1); n <= 10 {
		fmt.Fprintf(r.log, "FAIL %s: %v\n", name, err)
	}
}

// layer runs fn, a call into one layer, as a span when tracing. fn returns
// the units of work it did.
func (o *opCtx) layer(name string, fn func() (float64, error)) error {
	if !o.r.traced {
		_, err := fn()
		return err
	}
	var ms runtime.MemStats
	alloc := int64(-1)
	if o.r.measureAlloc {
		runtime.ReadMemStats(&ms)
		alloc = int64(ms.TotalAlloc)
	}
	start := time.Since(o.r.t0)
	units, err := fn()
	end := time.Since(o.r.t0)
	if alloc >= 0 {
		runtime.ReadMemStats(&ms)
		alloc = int64(ms.TotalAlloc) - alloc
	}
	o.rec.spans = append(o.rec.spans, span{name: name, start: start, end: end, units: units, alloc: alloc})
	return err
}

// forEach runs fn(i) for every i on the harness pool. fn records failures
// in its op record instead of returning them.
func (r *runner) forEach(n int, fn func(i int)) {
	_, _ = parallel.Map(r.width, n, func(i int) (struct{}, error) {
		fn(i)
		return struct{}{}, nil
	})
}

// sequential runs ops 0..n-1 of a throwaway iteration on this goroutine,
// measuring each span's allocation when tracing, and keeps the spans as
// set-up spans. Set-up uses it to warm stacks and caches.
func (r *runner) sequential(n int, fn func(it *iteration, i int)) {
	it := &iteration{index: -1, ops: make([]opRecord, n)}
	r.measureAlloc = r.traced
	defer func() { r.measureAlloc = false }()
	for i := 0; i < n; i++ {
		fn(it, i)
		r.setupSpans = append(r.setupSpans, it.ops[i].spans...)
	}
}

// procSample is the process-wide counters an in-process iteration is
// measured by.
type procSample struct {
	cpu               time.Duration
	totalAlloc, numGC uint64
	pauseNs           uint64
	gcCPU, totalCPU   float64
	maxRSSKB          float64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      uint64(ms.NumGC),
		pauseNs:    ms.PauseTotalNs,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		maxRSSKB:   float64(ru.Maxrss),
	}
}

// timed runs body as the in-process iteration it and fills in its
// process-wide measurements.
func (r *runner) timed(it *iteration, body func()) {
	b := sampleProc()
	start := time.Now()
	body()
	it.wall = time.Since(start)
	a := sampleProc()
	it.cpu = a.cpu - b.cpu
	it.alloc = float64(a.totalAlloc - b.totalAlloc)
	it.gcCount = float64(a.numGC - b.numGC)
	it.gcPauseNs = float64(a.pauseNs - b.pauseNs)
	it.gcCPU = a.gcCPU - b.gcCPU
	it.totalCPU = a.totalCPU - b.totalCPU
	it.rssKB = a.maxRSSKB
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// probe collects the heap, so what follows starts from a collected heap,
// and times the reference probe.
func (r *runner) probe() time.Duration {
	runtime.GC()
	return r.ref.time()
}

// atReference is the factor that converts a time measured after a probe
// that took ref into the time at the reference host speed.
func atReference(ref time.Duration) float64 {
	return math.Pow(float64(refNominal)/float64(ref), probeExponent)
}

// resetPeakRSS resets the process's peak-RSS mark, which getrusage
// reports, to its current RSS, so an iteration's peak is its own. Where
// Linux does not offer the reset, the mark stays the lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// result is what one run reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// iterations is how many timed iterations a run of w makes: a fixed count
// per second of -seconds, the same for every commit, so a faster commit
// does not get a longer run.
func (w *workloadDef) iterations(seconds float64) int {
	return max(minIters, int(w.itersPerSecond*seconds+0.5))
}

// run sets the workload up, runs its timed iterations and computes the
// run's metrics. It also returns the iterations.
func (r *runner) run(w *workloadDef) (result, []*iteration, error) {
	prev := runtime.GOMAXPROCS(r.width)
	defer runtime.GOMAXPROCS(prev)
	if r.ref == nil {
		r.ref = newRefProbe()
	}
	r.t0 = time.Now()

	reps := setupReps
	if r.trace {
		reps = 1
	}
	r.traced = r.trace
	var sess session
	var setups []float64
	for i := 0; i < reps; i++ {
		r.setupSpans = nil
		ref := r.probe()
		start := time.Now()
		s, err := w.setup(r)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds()*atReference(ref))
		sess = s
	}

	var its []*iteration
	for i, n := 0, w.iterations(r.seconds); i < n; i++ {
		// A traced run alternates untraced and traced iterations, so the
		// tracing overhead is measured within one run.
		it := &iteration{index: i, traced: r.trace && i%2 == 1}
		r.traced = it.traced
		it.ref = r.probe()
		resetPeakRSS()
		it.start = time.Since(r.t0)
		if err := sess.iterate(it); err != nil {
			return result{}, nil, fmt.Errorf("%s iteration %d: %w", w.name, i, err)
		}
		its = append(its, it)
	}
	r.traced = false

	res := result{Metrics: map[string]metricValue{}}
	for _, it := range its {
		for _, op := range it.ops {
			res.Attempted++
			if op.failed {
				res.Failed++
			}
		}
	}
	// The Table 3 accuracy check is one more op, made once per run after
	// the timed iterations.
	errPct, err := r.table3Check()
	res.Attempted++
	if err != nil {
		res.Failed++
		r.logFailure("table3", err)
	}
	res.Correct = res.Failed == 0
	if r.trace {
		hot, err := r.hotPaths()
		if err != nil {
			return result{}, nil, err
		}
		for name, v := range r.layerMetrics(its, hot) {
			res.Metrics[name] = v
		}
		if err := r.writeTrace(w.name, its); err != nil {
			return result{}, nil, err
		}
	} else {
		for name, v := range endToEndMetrics(its, setups, errPct) {
			res.Metrics[name] = v
		}
	}
	r.summarize(w.name, its, res)
	return res, its, nil
}

// endToEndMetrics are the numbers a user of the simulator waits for,
// measured with tracing off. Times are at the reference host speed: each
// iteration's times are scaled by its probe.
func endToEndMetrics(its []*iteration, setups []float64, table3ErrPct float64) map[string]metricValue {
	var wall, cpu, alloc, rss, opsMs []float64
	for _, it := range its {
		k := atReference(it.ref)
		wall = append(wall, it.wall.Seconds()*k)
		cpu = append(cpu, it.cpu.Seconds()*k)
		alloc = append(alloc, it.alloc/1e6)
		rss = append(rss, it.rssKB*1024/1e6)
		for _, op := range it.ops {
			opsMs = append(opsMs, float64(op.end-op.start)/1e6*k)
		}
	}
	return map[string]metricValue{
		"wall_s":         {median(wall), "s"},
		"cpu_s":          {median(cpu), "s"},
		"op_ms_p50":      {percentile(opsMs, 0.5), "ms"},
		"op_ms_p90":      {percentile(opsMs, 0.9), "ms"},
		"alloc_mb":       {median(alloc), "MB"},
		"peak_rss_mb":    {median(rss), "MB"},
		"setup_s":        {median(setups), "s"},
		"table3_err_pct": {table3ErrPct, "%"},
	}
}

// summarize prints the human-readable account of a run.
func (r *runner) summarize(name string, its []*iteration, res result) {
	traced, ops := 0, 0
	var wall, speed []float64
	for _, it := range its {
		if it.traced {
			traced++
		}
		ops += len(it.ops)
		wall = append(wall, it.wall.Seconds())
		speed = append(speed, atReference(it.ref))
	}
	fmt.Fprintf(r.log, "workload %s seed %d scale %g width %d: %d iterations (%d traced), %d ops + 1 Table 3 check, %d failed (error rate %.4g)\n",
		name, r.seed, r.scale, r.width, len(its), traced, ops, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	fmt.Fprintf(r.log, "  host at %.3fx reference speed (probe median); raw median iteration wall %.6g s\n",
		median(speed), median(wall))
	for _, m := range metricOrder(res.Metrics) {
		v := res.Metrics[m]
		fmt.Fprintf(r.log, "  %-40s %14.6g %s\n", m, v.Value, v.Unit)
	}
}
