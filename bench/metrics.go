package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run with tracing off reports.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"op_ms_p50", "ms"}, {"op_ms_p90", "ms"},
	{"alloc_mb", "MB"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"}, {"table3_err_pct", "%"},
}

// evalOpPrefix starts the name of every eval-all op, one `nvbench -all`
// entry, which the traced run reports as eval.<entry>.ms.
const evalOpPrefix = "eval."

// perLayer are the metrics a traced run reports, in report order, except
// the hotpath.<case>.ns metrics: one for each case nvperf measures.
func perLayer() []metricDef {
	defs := []metricDef{
		{"build.calls", "count"}, {"build.ms_p50", "ms"}, {"build.share", "ratio"}, {"build.alloc_mb", "MB"},
		{"runner.ns_per_txn", "ns"}, {"runner.runfor.ns_per_txn", "ns"}, {"runner.share", "ratio"},
		{"runner.alloc_b_per_txn", "B"}, {"micro.ns_per_iter", "ns"}, {"storm.ns_per_event", "ns"},
		{"hyper.sim_exits", "count"}, {"hyper.ns_per_sim_exit", "ns"},
		{"plan.compiles", "count"}, {"plan.replays", "count"}, {"plan.delivery_compiles", "count"},
		{"plan.delivery_replays", "count"}, {"plan.invalidations", "count"}, {"plan.hit_ratio", "ratio"},
		{"hotpath.allocs_max", "count"},
		{"pool.width", "count"}, {"pool.busy_ratio", "ratio"}, {"pool.cell_ms_p50", "ms"},
		{"migrate.run_ms_p50", "ms"}, {"migrate.verify_ms_p50", "ms"},
		{"migrate.pages_sent", "count"}, {"migrate.rounds", "count"},
		{"migrate.ns_per_page", "ns"}, {"migrate.share", "ratio"},
		{"render.ms", "ms"}, {"render.share", "ratio"},
	}
	for _, name := range evalEntryNames() {
		defs = append(defs, metricDef{evalOpPrefix + name + ".ms", "ms"})
	}
	return append(defs,
		metricDef{"gc.count", "count"}, metricDef{"gc.pause_ms", "ms"}, metricDef{"gc.cpu_share", "ratio"},
		metricDef{"heap.peak_mb", "MB"}, metricDef{"host.ref_ms", "ms"},
		metricDef{"trace.overhead", "ratio"}, metricDef{"trace.unattributed_share", "ratio"},
	)
}

// metricOrder lists the names in m in report order.
func metricOrder(m map[string]metricValue) []string {
	var names []string
	for _, defs := range [][]metricDef{endToEnd, perLayer()} {
		for _, d := range defs {
			if _, ok := m[d.name]; ok {
				names = append(names, d.name)
			}
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	var rest []string
	for n := range m {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// layerMetrics derives the per-layer numbers from the traced iterations'
// spans and counters, the traced set-up's spans and nvperf's hot-path
// cases. A layer the workload never calls from the benchmark's own code
// reads 0.
func (r *runner) layerMetrics(its []*iteration, hot []hotBench) map[string]metricValue {
	v := map[string]float64{}
	var traced []*iteration
	var tracedWall, plainWall, refMs []float64
	for _, it := range its {
		w := it.wall.Seconds() * atReference(it.ref)
		if it.traced {
			traced = append(traced, it)
			tracedWall = append(tracedWall, w)
		} else {
			plainWall = append(plainWall, w)
		}
		refMs = append(refMs, float64(it.ref)/1e6)
	}
	n := float64(len(traced))

	// Spans by layer: durations, units of work and, where measured,
	// allocation.
	type layerAgg struct {
		ms     []float64
		ns     float64
		units  float64
		alloc  float64
		allocN float64 // units of the spans whose allocation was measured
		allocK float64 // number of such spans
	}
	agg := map[string]*layerAgg{}
	get := func(name string) *layerAgg {
		if a := agg[name]; a != nil {
			return a
		}
		a := &layerAgg{}
		agg[name] = a
		return a
	}
	add := func(s span) {
		a := get(s.name)
		a.ms = append(a.ms, float64(s.dur())/1e6)
		a.ns += float64(s.dur())
		a.units += s.units
		if s.alloc >= 0 {
			a.alloc += float64(s.alloc)
			a.allocN += s.units
			a.allocK++
		}
	}
	var opNs, iterNs, coveredNs, exits, pages, rounds float64
	var plan planCounts
	var opMs, gcCount, gcPause, heapPeak []float64
	var gcCPU, totalCPU float64
	perIter := map[string][]float64{}
	for _, it := range traced {
		iterNs += float64(it.wall)
		coveredNs += float64(covered(it))
		gcCount = append(gcCount, it.gcCount)
		gcPause = append(gcPause, it.gcPauseNs/1e6)
		gcCPU += it.gcCPU
		totalCPU += it.totalCPU
		peak := 0.0
		spanMs := map[string]float64{}
		for _, op := range it.ops {
			d := float64(op.end - op.start)
			opNs += d
			opMs = append(opMs, d/1e6)
			exits += float64(op.simExits)
			pages += float64(op.pages)
			rounds += float64(op.rounds)
			plan.compiles += op.plan.compiles
			plan.replays += op.plan.replays
			plan.deliveryCompiles += op.plan.deliveryCompiles
			plan.deliveryReplays += op.plan.deliveryReplays
			plan.invalidations += op.plan.invalidations
			peak = max(peak, float64(op.heapBytes))
			if strings.HasPrefix(op.name, evalOpPrefix) {
				spanMs[op.name] += d / 1e6
			}
			for _, s := range op.spans {
				add(s)
				spanMs[s.name] += float64(s.dur()) / 1e6
			}
		}
		heapPeak = append(heapPeak, peak)
		perIter["render"] = append(perIter["render"], spanMs["render"])
		for _, name := range evalEntryNames() {
			perIter[evalOpPrefix+name] = append(perIter[evalOpPrefix+name], spanMs[evalOpPrefix+name])
		}
	}
	// Set-up runs on one goroutine, so its spans carry exact allocation.
	// Its builds also count toward the build time: app-steady builds only
	// there.
	for _, s := range r.setupSpans {
		a := get(s.name)
		if s.alloc >= 0 {
			a.alloc += float64(s.alloc)
			a.allocN += s.units
			a.allocK++
		}
		if s.name == "build" {
			a.ms = append(a.ms, float64(s.dur())/1e6)
		}
	}
	build, run, runFor := get("build"), get("runner.run"), get("runner.runfor")
	micro, storm, mrun, mverify, render := get("micro"), get("storm"), get("migrate.run"), get("migrate.verify"), get("render")

	v["build.calls"] = ratio(build.units, n)
	v["build.ms_p50"] = median(build.ms)
	v["build.share"] = ratio(build.ns, opNs)
	v["build.alloc_mb"] = ratio(build.alloc, build.allocK) / 1e6
	v["runner.ns_per_txn"] = ratio(run.ns, run.units)
	v["runner.runfor.ns_per_txn"] = ratio(runFor.ns, runFor.units)
	v["runner.share"] = ratio(run.ns+runFor.ns, opNs)
	v["runner.alloc_b_per_txn"] = ratio(run.alloc, run.allocN)
	v["micro.ns_per_iter"] = ratio(micro.ns, micro.units)
	v["storm.ns_per_event"] = ratio(storm.ns, storm.units)
	v["hyper.sim_exits"] = ratio(exits, n)
	v["hyper.ns_per_sim_exit"] = ratio(micro.ns+storm.ns+run.ns+runFor.ns, exits)
	v["plan.compiles"] = ratio(float64(plan.compiles), n)
	v["plan.replays"] = ratio(float64(plan.replays), n)
	v["plan.delivery_compiles"] = ratio(float64(plan.deliveryCompiles), n)
	v["plan.delivery_replays"] = ratio(float64(plan.deliveryReplays), n)
	v["plan.invalidations"] = ratio(float64(plan.invalidations), n)
	v["plan.hit_ratio"] = ratio(float64(plan.replays+plan.deliveryReplays),
		float64(plan.compiles+plan.replays+plan.deliveryCompiles+plan.deliveryReplays))
	for _, h := range hot {
		// Replayed cases run on the compiled-plan path, where the engine
		// promises zero allocations per operation.
		if strings.HasSuffix(h.Name, "-replayed") {
			v["hotpath.allocs_max"] = max(v["hotpath.allocs_max"], float64(h.AllocsPerOp))
		}
	}
	v["pool.width"] = float64(r.width)
	if r.workload != "eval-all" {
		// eval-all's pool runs inside the experiment package, out of sight.
		v["pool.busy_ratio"] = ratio(opNs, iterNs*float64(r.width))
		v["pool.cell_ms_p50"] = median(opMs)
	}
	v["migrate.run_ms_p50"] = median(mrun.ms)
	v["migrate.verify_ms_p50"] = median(mverify.ms)
	v["migrate.pages_sent"] = ratio(pages, n)
	v["migrate.rounds"] = ratio(rounds, n)
	v["migrate.ns_per_page"] = ratio(mrun.ns, mrun.units)
	v["migrate.share"] = ratio(mrun.ns+mverify.ns, opNs)
	v["render.ms"] = median(perIter["render"])
	v["render.share"] = ratio(render.ns, iterNs)
	for _, name := range evalEntryNames() {
		v[evalOpPrefix+name+".ms"] = median(perIter[evalOpPrefix+name])
	}
	v["gc.count"] = median(gcCount)
	v["gc.pause_ms"] = median(gcPause)
	v["gc.cpu_share"] = ratio(gcCPU, totalCPU)
	v["heap.peak_mb"] = maxOf(heapPeak) / 1e6
	v["host.ref_ms"] = median(refMs)
	v["trace.overhead"] = ratio(median(tracedWall), median(plainWall)) - 1
	v["trace.unattributed_share"] = 1 - ratio(coveredNs, iterNs)

	out := map[string]metricValue{}
	for _, d := range perLayer() {
		out[d.name] = metricValue{v[d.name], d.unit}
	}
	for _, h := range hot {
		out[hotMetric(h.Name)] = metricValue{h.NsPerOp, "ns"}
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// covered is how much of the iteration's wall time its op spans cover: the
// union of their intervals, as ops on different workers overlap.
func covered(it *iteration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, op := range it.ops {
		a, b := max(op.start, it.start), min(op.end, it.start+it.wall)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, x := range ivs {
		if x.a > end {
			total += x.b - x.a
			end = x.b
		} else if x.b > end {
			total += x.b - end
			end = x.b
		}
	}
	return total
}

// traceRecord is one span in the trace file.
type traceRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Iter    int     `json:"iter"`
	Op      int     `json:"op"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	Units   float64 `json:"units,omitempty"`
	AllocB  int64   `json:"alloc_b,omitempty"`
}

// writeTrace writes the traced iterations' spans, and the traced set-up's,
// to <traceDir>/trace-<workload>.jsonl: one span per line, each iteration
// the parent of its ops and each op the parent of its layer calls. Set-up
// spans have iteration and op -1 and no parent.
func (r *runner) writeTrace(name string, its []*iteration) error {
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.traceDir, "trace-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	emit := func(rec traceRecord) int {
		id++
		rec.ID = id
		_ = enc.Encode(rec) // a failed write surfaces at Flush
		return id
	}
	for _, s := range r.setupSpans {
		emit(traceRecord{Name: s.name, Iter: -1, Op: -1, StartNs: int64(s.start), EndNs: int64(s.end), Units: s.units, AllocB: max(s.alloc, 0)})
	}
	for _, it := range its {
		if !it.traced {
			continue
		}
		iid := emit(traceRecord{Name: "iteration", Iter: it.index, Op: -1, StartNs: int64(it.start), EndNs: int64(it.start + it.wall)})
		for i, op := range it.ops {
			oid := emit(traceRecord{Parent: iid, Name: "op " + op.name, Iter: it.index, Op: i, StartNs: int64(op.start), EndNs: int64(op.end)})
			for _, s := range op.spans {
				emit(traceRecord{Parent: oid, Name: s.name, Iter: it.index, Op: i, StartNs: int64(s.start), EndNs: int64(s.end), Units: s.units})
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "trace: %s (%d spans)\n", path, id)
	return nil
}
