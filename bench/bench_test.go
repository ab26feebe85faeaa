package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// asMainEnv makes the test binary behave as the benchmark command, so the
// eval-all workload can start its children and the exit-code tests can run
// the command as a process.
const asMainEnv = "NVSIM_BENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(asMainEnv, "1")
	os.Exit(m.Run())
}

// specPath is the repository's BENCHMARK.json.
const specPath = "../BENCHMARK.json"

type specMetric struct{ Name, Unit string }

func readSpec(t *testing.T) (workloads []string, e2e, layer []specMetric) {
	t.Helper()
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

// fakeNVPerf writes an nvperf stand-in into dir that copies the committed
// artifact to its -o path: timing the real hot paths takes longer than the
// whole self-test may.
func fakeNVPerf(t *testing.T, dir string) {
	t.Helper()
	artifact, err := filepath.Abs("../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	script := fmt.Sprintf("#!/bin/sh\n# $1 is -o\ncp '%s' \"$2\"\n", artifact)
	if err := os.WriteFile(filepath.Join(dir, "nvperf"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
}

func tinyRunner(t *testing.T, name string, seed uint64, trace bool) *runner {
	t.Helper()
	raw, err := loadEmbedded()
	if err != nil {
		t.Fatal(err)
	}
	tools := t.TempDir()
	fakeNVPerf(t, tools)
	return &runner{
		config: config{workload: name, seed: seed, trace: trace, scale: tinyScale, traceDir: t.TempDir(), tools: tools},
		width:  defaultWidth(),
		raw:    raw,
		log:    io.Discard,
	}
}

func checkMetrics(t *testing.T, name string, got map[string]metricValue, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", name, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("%s: %s in %q, BENCHMARK.json says %q", name, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestWorkloads runs every workload at tiny scale, untraced and traced: each
// reports exactly the metrics BENCHMARK.json names, with their units, no op
// fails, and the traced spans cover at least 95% of every traced
// iteration's wall time.
func TestWorkloads(t *testing.T) {
	names, e2e, layer := readSpec(t)
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, ours)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := tinyRunner(t, w.name, 1, trace)
			res, its, err := r.run(w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, trace, res.Failed, res.Attempted)
			}
			if !trace {
				checkMetrics(t, w.name, res.Metrics, e2e)
				for _, m := range e2e {
					if v := res.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v)
					}
				}
				continue
			}
			checkMetrics(t, w.name+" traced", res.Metrics, layer)
			for _, it := range its {
				if !it.traced {
					continue
				}
				if c := float64(covered(it)) / float64(it.wall); c < 0.95 {
					t.Errorf("%s iteration %d: spans cover %.3f of its wall time", w.name, it.index, c)
				}
			}
			if _, err := os.Stat(filepath.Join(r.traceDir, "trace-"+w.name+".jsonl")); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

// opKeys is a session's generated op sequence.
func opKeys(t *testing.T, s session) []string {
	t.Helper()
	var keys []string
	switch s := s.(type) {
	case *cellSweep:
		for _, c := range s.ops {
			keys = append(keys, c.key())
		}
	case *appSteady:
		for _, lane := range s.lanes {
			for _, op := range lane.ops {
				keys = append(keys, fmt.Sprintf("%s/%s/%d", lane.cfg.label, op.profile.Name, op.rngSeed))
			}
		}
	case *migrateChurn:
		for _, op := range s.ops {
			keys = append(keys, op.key())
		}
	default:
		t.Fatalf("no op sequence for %T", s)
	}
	return keys
}

// TestSeeds checks that a seed fixes the generated inputs and the
// fingerprints, and that another seed changes the op sequence.
func TestSeeds(t *testing.T) {
	for _, name := range []string{"cell-sweep", "app-steady", "migrate-churn"} {
		w := workloadByName(name)
		gen := func(seed uint64) ([]string, map[string]string) {
			r := tinyRunner(t, name, seed, false)
			s, err := w.setup(r)
			if err != nil {
				t.Fatal(err)
			}
			keys := opKeys(t, s)
			e, ok := s.(interface{ expected() *expectations })
			if !ok {
				return keys, nil
			}
			if err := s.iterate(&iteration{}); err != nil {
				t.Fatal(err)
			}
			return keys, e.expected().byKey()
		}
		k1, f1 := gen(7)
		k2, f2 := gen(7)
		k3, _ := gen(8)
		if !reflect.DeepEqual(k1, k2) {
			t.Errorf("%s: seed 7 generated two different op sequences", name)
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Errorf("%s: seed 7 gave two different fingerprint sets", name)
		}
		if reflect.DeepEqual(k1, k3) {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence", name)
		}
	}
}

// TestWrongGoldenFails plants one wrong golden entry and expects the run to
// count the op that hits it as failed: the check can fail.
func TestWrongGoldenFails(t *testing.T) {
	r := tinyRunner(t, "cell-sweep", 1, false)
	universe, err := parseCells(r.raw.cells)
	if err != nil {
		t.Fatal(err)
	}
	victim := drawCells(universe, r.scaled(cellsPerIter, 4), r.seed)[0]
	line := fmt.Sprintf("%s %d\n", victim.key(), uint64(victim.cycles))
	wrong := fmt.Sprintf("%s %d\n", victim.key(), uint64(victim.cycles)+1)
	if !bytes.Contains(r.raw.cells, []byte(line)) {
		t.Fatalf("golden line %q not found", line)
	}
	r.raw.cells = bytes.Replace(r.raw.cells, []byte(line), []byte(wrong), 1)
	res, _, err := r.run(workloadByName("cell-sweep"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("wrong golden entry went unnoticed: %d of %d ops failed", res.Failed, res.Attempted)
	}
}

// fixtureStride is the share of the cell universe the fixture test
// regenerates: every fixtureStride-th cell, in canonical order.
const fixtureStride = 4

// TestFixturesWithoutPlanCache regenerates the fixtures at small scale with
// the plan caches off and expects the committed bytes: compiled plans and
// the live recursion agree at the level of everything the benchmark checks.
// The eval-all golden comes from the nvbench command itself, built here;
// the cell universe is listed in full but only every fixtureStride-th cell
// is run; the fingerprints are regenerated at tiny scale.
func TestFixturesWithoutPlanCache(t *testing.T) {
	t.Setenv("NVSIM_NOPLANCACHE", "1")
	raw, err := loadEmbedded()
	if err != nil {
		t.Fatal(err)
	}
	c := &config{tools: t.TempDir()}
	build := exec.Command("go", "build", "-o", c.tool("nvbench"), "repro/cmd/nvbench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build nvbench: %v\n%s", err, out)
	}
	evalAll, err := c.nvbenchAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evalAll, raw.evalAll) {
		t.Error("nvbench -all without the plan cache differs from eval-all.golden")
	}
	goldenCells, err := parseCells(raw.cells)
	if err != nil {
		t.Fatal(err)
	}
	universe := cellUniverse()
	if len(universe) != len(goldenCells) {
		t.Fatalf("the universe has %d cells, cells.golden %d", len(universe), len(goldenCells))
	}
	var want, got []cell
	for i := 0; i < len(universe); i += fixtureStride {
		if universe[i].key() != goldenCells[i].key() {
			t.Fatalf("cell %d is %s, cells.golden has %s", i, universe[i].key(), goldenCells[i].key())
		}
		want, got = append(want, goldenCells[i]), append(got, universe[i])
	}
	if err := runCells(got, defaultWidth()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(formatCells(got), formatCells(want)) {
		t.Error("cells without the plan cache differ from cells.golden")
	}
	r := tinyRunner(t, "", 0, false)
	fps, err := generateFingerprints(r, []float64{tinyScale})
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]map[string]map[string]string
	if err := json.Unmarshal(raw.fingerprints, &committed); err != nil {
		t.Fatal(err)
	}
	for name, bySeed := range fps {
		for key, got := range bySeed {
			if !reflect.DeepEqual(got, committed[name][key]) {
				t.Errorf("%s %s: fingerprints without the plan cache differ from fingerprints.json", name, key)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

// command runs the benchmark as a process and returns its exit code,
// standard output and standard error.
func command(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// writeRecords writes -record results of seeds 1..seeds, made with the given
// -seconds, whose wall_s is wall(seed).
func writeRecords(t *testing.T, dir, name string, seeds int, seconds float64, wall func(seed uint64) float64) string {
	t.Helper()
	var b bytes.Buffer
	_, e2e, _ := readSpec(t)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		res := result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}
		for _, m := range e2e {
			res.Metrics[m.Name] = metricValue{1 + float64(seed)/1000, m.Unit}
		}
		res.Metrics["wall_s"] = metricValue{wall(seed), "s"}
		line, err := json.Marshal(record{Workload: "cell-sweep", Seed: seed, Scale: 1, Seconds: seconds, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes runs the command as a process: -compare exits 0 without a
// regression and 1 with one, calls a comparison on fewer than ten seed
// pairs unresolved, and every bad command line, runs of different length
// included, exits 2 with a message, never a panic.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeRecords(t, dir, "a.jsonl", 10, 20, func(seed uint64) float64 { return 1 + float64(seed)/1000 })
	same := writeRecords(t, dir, "b.jsonl", 10, 20, func(seed uint64) float64 { return 1 + float64(seed)/1000 })
	slower := writeRecords(t, dir, "c.jsonl", 10, 20, func(seed uint64) float64 { return 1.5 + float64(seed)/1000 })
	faster := writeRecords(t, dir, "d.jsonl", 10, 20, func(seed uint64) float64 { return 0.5 + float64(seed)/1000 })
	fewFaster := writeRecords(t, dir, "e.jsonl", 3, 20, func(seed uint64) float64 { return 0.5 + float64(seed)/1000 })
	longer := writeRecords(t, dir, "f.jsonl", 10, 40, func(seed uint64) float64 { return 1 + float64(seed)/1000 })
	spec := specPath
	for _, tc := range []struct {
		args []string
		want int
		// verdict, when set, must appear on the wall_s line.
		verdict string
	}{
		{[]string{"-compare", "-spec", spec, base, same}, 0, "unchanged"},
		{[]string{"-compare", "-spec", spec, base, slower}, 1, "worse"},
		{[]string{"-compare", "-spec", spec, base, faster}, 0, "improved"},
		{[]string{"-compare", "-spec", spec, base, fewFaster}, 0, "unresolved"},
		{[]string{"-compare", "-spec", spec, base, longer}, 2, ""},
		{[]string{"-compare", "-spec", spec, base, filepath.Join(dir, "missing.jsonl")}, 2, ""},
		{[]string{"-compare", "-spec", spec, base}, 2, ""},
		{[]string{"--workload", "no-such-workload"}, 2, ""},
		{[]string{"--workload", "cell-sweep", "--scale", "-1"}, 2, ""},
		{[]string{"--workload", "cell-sweep", "--trace", "3"}, 2, ""},
		{[]string{"--workload", "cell-sweep", "--seconds", "-5"}, 2, ""},
		{[]string{"--no-such-flag"}, 2, ""},
	} {
		code, stdout, stderr := command(t, tc.args...)
		if code != tc.want {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.want, stderr)
		}
		if tc.verdict != "" && !regexp.MustCompile(`(?m)^cell-sweep +wall_s .* `+tc.verdict+`$`).MatchString(stdout) {
			t.Errorf("%v: wall_s verdict is not %q:\n%s", tc.args, tc.verdict, stdout)
		}
		if strings.Contains(stderr, "panic") {
			t.Errorf("%v panicked: %s", tc.args, stderr)
		}
		if code == 2 && stderr == "" {
			t.Errorf("%v: exit 2 without a message", tc.args)
		}
	}
}
