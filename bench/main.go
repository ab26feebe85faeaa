// Command bench measures what the simulator costs its users in host time
// and memory, on four seeded workloads, and checks every modeled output
// against committed fixtures while it does. See README.md.
//
//	bash bench/run.sh --workload cell-sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: whether every
// output was correct, how many ops were attempted and failed, and the
// metrics (end-to-end with -trace 0, per-layer with -trace 1). A traced run
// also writes its spans to bench/out/trace-<workload>.jsonl.
//
// Other modes:
//
//	bench -compare A.jsonl B.jsonl   # verdict per (workload, metric) from two sets of -record runs
//	bench -update                    # regenerate the model-derived fixtures in bench/testdata
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/experiment"
	"repro/internal/profile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// scaleFlag is the -scale value: a positive factor on op counts and sizes,
// or "tiny".
type scaleFlag float64

// tinyScale sizes the self-test runs.
const tinyScale = 1.0 / 16

func (s *scaleFlag) String() string { return strconv.FormatFloat(float64(*s), 'g', -1, 64) }

func (s *scaleFlag) Set(v string) error {
	if v == "tiny" {
		*s = tinyScale
		return nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f > 0) || f > 64 {
		return errors.New("want a factor in (0, 64] or \"tiny\"")
	}
	*s = scaleFlag(f)
	return nil
}

// usageError is a bad command line: exit code 2.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// options are the command's flags.
type options struct {
	workload, traceDir, record, spec, fixtures, child, tools string
	seed                                                     uint64
	seconds                                                  float64
	trace                                                    int
	scale                                                    scaleFlag
	compare, update                                          bool
}

// run is the command: it returns the exit code, 0 on success, 1 when a run
// fails, an output is wrong or a comparison finds a regression, and 2 on a
// bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	o := options{scale: 1}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: eval-all, cell-sweep, app-steady or migrate-churn (default: all, one after another)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "run length: each workload makes a fixed number of timed iterations per second given, sized to take about that long on the reference host")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced: per-layer metrics and a span file instead of end-to-end metrics")
	fs.Var(&o.scale, "scale", "factor on op counts and sizes, or \"tiny\" (1/16) for the self-test")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join("bench", "out"), "directory the traced run writes its spans and the nvperf artifact to")
	fs.StringVar(&o.record, "record", "", "also append the result, tagged with workload, seed, scale and seconds, to this JSON-lines file")
	fs.BoolVar(&o.compare, "compare", false, "compare two files of -record results: -compare A.jsonl B.jsonl")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	fs.BoolVar(&o.update, "update", false, "regenerate the model-derived fixtures instead of running")
	fs.StringVar(&o.fixtures, "fixtures", filepath.Join("bench", "testdata"), "directory -update writes the fixtures to")
	fs.StringVar(&o.tools, "tools", "", "directory holding the nvbench and nvperf binaries (default: this binary's directory)")
	fs.StringVar(&o.child, "child", "", "internal: run as an eval-all child process (eval-all or noop)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := o.dispatch(fs.Args(), stdout)
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	case errors.Is(err, errFailed):
		return 1
	default:
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
}

// errFailed reports a completed run or comparison whose verdict is failure;
// the details are already printed.
var errFailed = errors.New("failed")

func (o *options) dispatch(args []string, stdout io.Writer) error {
	switch o.child {
	case "":
	case "eval-all":
		if runChild(stdout) != 0 {
			return errFailed
		}
		return nil
	case "noop":
		prof, err := profile.Resolve("")
		if err != nil {
			return err
		}
		experiment.SetDefaultProfile(prof.Name)
		return nil
	default:
		return usageError{fmt.Sprintf("unknown -child mode %q", o.child)}
	}
	if o.compare {
		if len(args) != 2 {
			return usageError{"-compare takes two files: -compare A.jsonl B.jsonl"}
		}
		worse, err := compareFiles(o.spec, args[0], args[1], stdout)
		if err != nil {
			return usageError{err.Error()}
		}
		if worse {
			return errFailed
		}
		return nil
	}
	if len(args) != 0 {
		return usageError{fmt.Sprintf("unexpected argument %q", args[0])}
	}
	if o.trace != 0 && o.trace != 1 {
		return usageError{fmt.Sprintf("-trace must be 0 or 1, got %d", o.trace)}
	}
	if !(o.seconds >= 0) || o.seconds > 3600 {
		return usageError{fmt.Sprintf("-seconds must be in [0, 3600], got %v", o.seconds)}
	}
	list := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return usageError{fmt.Sprintf("unknown workload %q (eval-all, cell-sweep, app-steady, migrate-churn)", o.workload)}
		}
		list = []*workloadDef{w}
	}
	if o.tools == "" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		o.tools = filepath.Dir(exe)
	}
	raw, err := loadEmbedded()
	if err != nil {
		return err
	}
	r := &runner{
		config: config{seed: o.seed, seconds: o.seconds, trace: o.trace == 1, scale: float64(o.scale), traceDir: o.traceDir, tools: o.tools},
		width:  defaultWidth(),
		raw:    raw,
		log:    stdout,
	}
	if o.update {
		if err := writeFixtures(o.fixtures, r); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bench: wrote fixtures to %s\n", o.fixtures)
		return nil
	}

	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range list {
		r.workload = w.name
		res, _, err := r.run(w)
		if err != nil {
			return err
		}
		if o.record != "" {
			rec := record{Workload: w.name, Seed: o.seed, Trace: o.trace, Scale: r.scale, Seconds: r.seconds, Result: res}
			if err := appendRecord(o.record, rec); err != nil {
				return err
			}
		}
		if len(list) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for m, v := range res.Metrics {
			total.Metrics[w.name+"."+m] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return errFailed
	}
	return nil
}

// record is one run's result as -record appends it and -compare reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Scale    float64 `json:"scale"`
	Seconds  float64 `json:"seconds"`
	Result   result  `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
