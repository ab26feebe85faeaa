package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/profile"
)

// evalEntry is one step of `nvbench -all`: compute runs the experiment and
// returns its renderer, title is the line nvbench prints above it.
type evalEntry struct {
	name, title string
	compute     func() (func() string, error)
}

func appFigure(title string, fig func() ([]experiment.AppResult, error)) func() (func() string, error) {
	return func() (func() string, error) {
		res, err := fig()
		return func() string { return experiment.FormatAppResults(title, res) }, err
	}
}

// rendered adapts an entry point and its formatter.
func rendered[T any](run func() (T, error), format func(T) string) func() (func() string, error) {
	return func() (func() string, error) {
		v, err := run()
		return func() string { return format(v) }, err
	}
}

// evalEntries is the `nvbench -all` sequence, in its order, run in this
// process so that each entry can be timed and its allocation counted. The
// rendered output must equal eval-all.golden, which -update takes from the
// nvbench binary itself, so this sequence cannot drift from nvbench's
// without every eval-all op failing.
func evalEntries() []evalEntry {
	return []evalEntry{
		{"table3", "Table 3: microbenchmark performance in CPU cycles", rendered(experiment.Table3, experiment.FormatTable3)},
		{"figure7", "", appFigure("Figure 7: application performance (2 levels)", experiment.Figure7)},
		{"figure8", "", appFigure("Figure 8: application performance breakdown", experiment.Figure8)},
		{"figure9", "", appFigure("Figure 9: application performance in L3 VM", experiment.Figure9)},
		{"figure10", "", appFigure("Figure 10: application performance, Xen on KVM", experiment.Figure10)},
		{"migration", "Migration (Section 4)", rendered(experiment.Migration, experiment.FormatMigration)},
		{"depth", "Depth sweep (Table 3 extended beyond the paper)",
			rendered(func() ([]experiment.DepthRow, error) { return experiment.DepthSweep(4) }, experiment.FormatDepthSweep)},
		{"breakdown", "Per-mechanism cycle attribution (the cause behind Figure 8)", rendered(experiment.Breakdown, experiment.FormatBreakdown)},
		{"stages", "Per-stage cycle attribution of Table 3 (the pipeline view)", rendered(experiment.StageBreakdown, experiment.FormatStageBreakdown)},
		{"workload-stages", "Per-workload stage attribution (Figure 7 application mixes)",
			rendered(experiment.WorkloadStageBreakdown, experiment.FormatWorkloadStageBreakdown)},
		{"storms", "Delivery storms (timer-storm, ipi-flood)", rendered(experiment.DeliveryStorms, experiment.FormatStorms)},
		{"latency", "Per-transaction latency tails", rendered(experiment.LatencyTails, experiment.FormatLatency)},
	}
}

// evalEntryNames are the names of the `nvbench -all` entries, in order.
func evalEntryNames() []string {
	var names []string
	for _, e := range evalEntries() {
		names = append(names, e.name)
	}
	return names
}

// childEntry is one entry's output and host cost, as the child reports it.
// Times are Unix nanoseconds, so the parent can place them on its own
// timeline.
type childEntry struct {
	Name      string `json:"name"`
	Out       string `json:"out"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	RenderNs  int64  `json:"render_ns"`
	HeapBytes uint64 `json:"heap_bytes"`
}

// childReport is what an eval-all child writes to its stdout.
type childReport struct {
	Header     string       `json:"header"`
	Entries    []childEntry `json:"entries"`
	Error      string       `json:"error,omitempty"`
	AllocBytes uint64       `json:"alloc_bytes"`
	GCCount    uint32       `json:"gc_count"`
	GCPauseNs  uint64       `json:"gc_pause_ns"`
	GCCPU      float64      `json:"gc_cpu_s"`
	TotalCPU   float64      `json:"total_cpu_s"`
}

// evalAll runs the `nvbench -all` sequence at the given pool width, as a
// fresh `nvbench -all -parallel width` would.
func evalAll(width int) *childReport {
	experiment.SetParallelism(width)
	rep := &childReport{}
	prof, err := profile.Resolve("")
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	experiment.SetDefaultProfile(prof.Name)
	rep.Header = fmt.Sprintf("calibration profile: %s — %s\n  anchors: %s\n\n", prof.Name, prof.Description, prof.AnchorString())
	for _, e := range evalEntries() {
		ce := childEntry{Name: e.name, StartNs: time.Now().UnixNano()}
		render, err := e.compute()
		if err != nil {
			rep.Error = fmt.Sprintf("%s: %v", e.name, err)
			return rep
		}
		r0 := time.Now()
		out := render()
		ce.RenderNs = time.Since(r0).Nanoseconds()
		if e.title != "" {
			ce.Out = e.title + "\n"
		}
		ce.Out += out + "\n"
		ce.EndNs = time.Now().UnixNano()
		ce.HeapBytes = readMetric("/memory/classes/heap/objects:bytes")
		rep.Entries = append(rep.Entries, ce)
	}
	return rep
}

// runChild is the eval-all child process: one iteration, reported as JSON.
func runChild(stdout io.Writer) int {
	rep := evalAll(runtime.GOMAXPROCS(0))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.AllocBytes, rep.GCCount, rep.GCPauseNs = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	p := sampleProc()
	rep.GCCPU, rep.TotalCPU = p.gcCPU, p.totalCPU
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

type evalAllSession struct {
	r      *runner
	golden []byte
}

// setupEvalAll checks the golden is there, then starts and stops one child
// that does nothing but initialize: the fixed cost every `nvbench` process
// pays before its first cell.
func setupEvalAll(r *runner) (session, error) {
	s := &evalAllSession{r: r, golden: r.raw.evalAll}
	if len(s.golden) == 0 {
		return nil, fmt.Errorf("eval-all.golden is empty")
	}
	cmd, err := r.childCmd("noop")
	if err != nil {
		return nil, err
	}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("eval-all child: %w", err)
	}
	return s, nil
}

func (r *runner) childCmd(mode string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", mode)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.width))
	cmd.Stderr = os.Stderr
	return cmd, nil
}

func (s *evalAllSession) iterate(it *iteration) error {
	cmd, err := s.r.childCmd("eval-all")
	if err != nil {
		return err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("eval-all child: %w", err)
	}
	err = cmd.Wait()
	it.wall = time.Since(start)
	if err != nil {
		return fmt.Errorf("eval-all child: %w", err)
	}
	st := cmd.ProcessState
	it.cpu = st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		it.rssKB = float64(ru.Maxrss)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return fmt.Errorf("eval-all child report: %w", err)
	}
	it.alloc = float64(rep.AllocBytes)
	it.gcCount, it.gcPauseNs = float64(rep.GCCount), float64(rep.GCPauseNs)
	it.gcCPU, it.totalCPU = rep.GCCPU, rep.TotalCPU
	s.check(it, &rep)
	return nil
}

// check records each entry of the child as one op, with its rendering as
// the op's layer span, and compares the entry's output with its part of
// the golden. A wrong header, an error that stopped the child early or
// missing output adds one failed op.
func (s *evalAllSession) check(it *iteration, rep *childReport) {
	it.ops = make([]opRecord, len(rep.Entries))
	failOp := func(err error) {
		it.ops = append(it.ops, opRecord{name: "eval-all"})
		s.r.op(it, len(it.ops)-1).fail(err)
	}
	if !bytes.HasPrefix(s.golden, []byte(rep.Header)) {
		failOp(fmt.Errorf("header differs from eval-all.golden"))
	}
	t0, off := s.r.t0.UnixNano(), len(rep.Header)
	for i, ce := range rep.Entries {
		o := s.r.op(it, i)
		o.rec.name = evalOpPrefix + ce.Name
		o.rec.start, o.rec.end = time.Duration(ce.StartNs-t0), time.Duration(ce.EndNs-t0)
		o.rec.heapBytes = ce.HeapBytes
		o.rec.spans = []span{{name: "render", start: o.rec.end - time.Duration(ce.RenderNs), end: o.rec.end, units: 1, alloc: -1}}
		stop := off + len(ce.Out)
		if stop > len(s.golden) || string(s.golden[off:stop]) != ce.Out {
			o.fail(fmt.Errorf("output differs from eval-all.golden"))
		}
		off = stop
	}
	switch {
	case rep.Error != "":
		failOp(fmt.Errorf("child: %s", rep.Error))
	case off != len(s.golden):
		failOp(fmt.Errorf("output is %d bytes, eval-all.golden %d", off, len(s.golden)))
	}
}
