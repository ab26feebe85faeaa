package nvsim_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/hyper"
	"repro/internal/profile"
)

// clis are the six user-facing commands; every one of them accepts -profile
// and must fail an unknown name the same way: exit 2 with the registered
// list on stderr.
var clis = []string{"nvsim", "nvbench", "nvartifact", "nvperf", "nvtrace", "nvreport"}

var (
	cliBuildOnce sync.Once
	cliBinDir    string
	cliBuildErr  error
)

// buildCLIs compiles every command, the clis and nvlint, once per test
// process into a shared temporary directory (go's build cache makes repeats
// cheap).
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliBuildOnce.Do(func() {
		cliBinDir, cliBuildErr = os.MkdirTemp("", "nvsim-cli-test")
		if cliBuildErr != nil {
			return
		}
		for _, name := range append([]string{"nvlint"}, clis...) {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliBinDir, name), "./cmd/"+name)
			if out, err := cmd.CombinedOutput(); err != nil {
				cliBuildErr = err
				t.Logf("building %s: %s", name, out)
				return
			}
		}
	})
	if cliBuildErr != nil {
		t.Fatalf("building CLIs: %v", cliBuildErr)
	}
	return cliBinDir
}

// cleanEnv is the process environment with NVSIM_PROFILE removed, so tests
// control profile selection explicitly.
func cleanEnv(extra ...string) []string {
	env := make([]string, 0, len(os.Environ())+len(extra))
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, profile.Env+"=") {
			env = append(env, kv)
		}
	}
	return append(env, extra...)
}

func runCLI(t *testing.T, bin string, env []string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code = 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: %v", bin, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestUnknownProfileExitsTwo: every CLI rejects an unknown -profile with exit
// code 2 and names the registered profiles, so a typo'd testbed never
// silently falls back to the Xeon calibration.
func TestUnknownProfileExitsTwo(t *testing.T) {
	dir := buildCLIs(t)
	for _, name := range clis {
		t.Run(name, func(t *testing.T) {
			_, stderr, code := runCLI(t, filepath.Join(dir, name), cleanEnv(), "-profile", "no-such-testbed")
			if code != 2 {
				t.Fatalf("%s -profile no-such-testbed exited %d, want 2 (stderr: %s)", name, code, stderr)
			}
			if !strings.Contains(stderr, `unknown calibration profile "no-such-testbed"`) {
				t.Errorf("%s stderr does not name the bad profile: %s", name, stderr)
			}
			if !strings.Contains(stderr, "registered: "+strings.Join(profile.Names(), ", ")) {
				t.Errorf("%s stderr does not list the registered profiles: %s", name, stderr)
			}
		})
	}
}

// TestProfileEnvFlagPrecedence pins the selection order on a real process:
// NVSIM_PROFILE applies when no flag is given, an explicit -profile beats it
// (even when the env value is garbage), and an unknown env value alone fails
// with exit 2.
func TestProfileEnvFlagPrecedence(t *testing.T) {
	dir := buildCLIs(t)
	bin := filepath.Join(dir, "nvtrace")
	args := []string{"-depth", "1", "-micro", "Hypercall"}

	stdout, stderr, code := runCLI(t, bin, cleanEnv(profile.Env+"=ice-lake-sp"), args...)
	if code != 0 {
		t.Fatalf("nvtrace under %s=ice-lake-sp exited %d: %s", profile.Env, code, stderr)
	}
	if !strings.Contains(stdout, "profile=ice-lake-sp") {
		t.Errorf("env-selected profile not reported: %s", stdout)
	}

	stdout, stderr, code = runCLI(t, bin, cleanEnv(profile.Env+"=no-such-testbed"),
		append([]string{"-profile", "epyc-milan"}, args...)...)
	if code != 0 {
		t.Fatalf("-profile did not override a bad env value; exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "profile=epyc-milan") {
		t.Errorf("flag-selected profile not reported: %s", stdout)
	}

	_, stderr, code = runCLI(t, bin, cleanEnv(profile.Env+"=no-such-testbed"), args...)
	if code != 2 {
		t.Fatalf("unknown %s value exited %d, want 2 (stderr: %s)", profile.Env, code, stderr)
	}
	if !strings.Contains(stderr, "registered:") {
		t.Errorf("env failure does not list registered profiles: %s", stderr)
	}
}

// TestListProfiles: nvbench and nvartifact enumerate the registry — every
// registered name with its description and anchor assertions, sorted, with
// the default marked — and exit 0 without running anything.
func TestListProfiles(t *testing.T) {
	dir := buildCLIs(t)
	for _, name := range []string{"nvbench", "nvartifact"} {
		t.Run(name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, filepath.Join(dir, name), cleanEnv(), "-list-profiles")
			if code != 0 {
				t.Fatalf("%s -list-profiles exited %d: %s", name, code, stderr)
			}
			last := -1
			for _, p := range profile.All() {
				idx := strings.Index(stdout, p.Name)
				if idx < 0 {
					t.Fatalf("%s output missing profile %s:\n%s", name, p.Name, stdout)
				}
				if idx < last {
					t.Errorf("%s listing is not sorted: %s appears before a lexicographically earlier name", name, p.Name)
				}
				last = idx
				if !strings.Contains(stdout, p.Description) {
					t.Errorf("%s output missing description for %s", name, p.Name)
				}
				if !strings.Contains(stdout, p.AnchorString()) {
					t.Errorf("%s output missing anchors for %s", name, p.Name)
				}
			}
			if !strings.Contains(stdout, profile.DefaultName+" (default)") {
				t.Errorf("%s listing does not mark the default profile:\n%s", name, stdout)
			}
		})
	}
}

// TestBadInputNamesFlag: a bad flag value or a stray positional argument is
// a usage error — exit 2, nothing on stdout, and a one-line stderr error
// naming the flag or argument — never a panic, a goroutine dump, or output
// from the entries that happened to run first.
func TestBadInputNamesFlag(t *testing.T) {
	dir := buildCLIs(t)
	tmp := t.TempDir()
	malformed := filepath.Join(tmp, "malformed.json")
	if err := os.WriteFile(malformed, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// nvperf writes its artifact to -o; the stray-argument row must fail
	// before it collects anything, so nothing may appear there.
	perfOut := filepath.Join(tmp, "out.json")
	for _, tc := range []struct {
		cli  string
		args []string
		flag string
	}{
		{"nvartifact", []string{"-runs", "0"}, "-runs"},
		{"nvartifact", []string{"-runs", "-1"}, "-runs"},
		{"nvartifact", []string{"-level", "L9"}, "-level"},
		{"nvartifact", []string{"-parallel", "-1"}, "-parallel"},
		{"nvartifact", []string{"-level", "L0", "-io", "bogus"}, "-io"},
		{"nvartifact", []string{"-level", "L1", "-io", "dvh-vp"}, "-io"},
		{"nvartifact", []string{"-level", "L2", "-enlightened"}, "-enlightened"},
		{"nvartifact", []string{"-level", "L1", "-enlightened", "-guest", "xen"}, "-enlightened"},
		{"nvsim", []string{"-txns", "0"}, "-txns"},
		{"nvsim", []string{"-io", "bogus"}, "-io"},
		{"nvsim", []string{"-guest", "bogus"}, "-guest"},
		{"nvsim", []string{"-workload", "bogus"}, "-workload"},
		{"nvsim", []string{"-depth", "0"}, "-depth"},
		{"nvsim", []string{"-depth", "1", "-io", "dvh"}, "-io"},
		{"nvbench", []string{"-figure", "11"}, "-figure"},
		{"nvbench", []string{"-table", "4"}, "-table"},
		{"nvbench", []string{"-format", "bogus", "-figure", "7"}, "-format"},
		{"nvbench", []string{"-parallel", "-1"}, "-parallel"},
		{"nvbench", []string{"-table", "3", "-experiment", "bogus"}, "-experiment"},
		{"nvtrace", []string{"-depth", "4"}, "-depth"},
		{"nvtrace", []string{"-micro", "bogus"}, "-micro"},
		// nvperf checks its baseline before the ~20 s collection.
		{"nvperf", []string{"-compare", "no-such-baseline.json"}, "-compare"},
		{"nvperf", []string{"-compare", malformed}, "-compare"},
		// A stray positional argument, such as a dropped dash, never runs
		// anything.
		{"nvsim", []string{"-depth", "3", "extra"}, `"extra"`},
		{"nvtrace", []string{"-timeline", "extra"}, `"extra"`},
		{"nvartifact", []string{"-runs", "1", "extra"}, `"extra"`},
		{"nvbench", []string{"-all", "extra"}, `"extra"`},
		{"nvperf", []string{"-o", perfOut, "compare", "BENCH_10.json"}, `"compare"`},
		{"nvreport", []string{"extra"}, `"extra"`},
		{"nvlint", []string{"extra"}, `"extra"`},
	} {
		// The temporary directory differs per run; keep it out of the name.
		name := strings.ReplaceAll(tc.cli+strings.Join(tc.args, ""), tmp+string(filepath.Separator), "")
		t.Run(name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, filepath.Join(dir, tc.cli), cleanEnv(), tc.args...)
			if code != 2 {
				t.Errorf("%s %v exited %d, want 2", tc.cli, tc.args, code)
			}
			if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine") {
				t.Fatalf("%s %v panicked:\n%s", tc.cli, tc.args, stderr)
			}
			if stdout != "" {
				t.Errorf("%s %v printed to stdout before failing:\n%s", tc.cli, tc.args, stdout)
			}
			lines := strings.Split(strings.TrimSpace(stderr), "\n")
			if len(lines) != 1 || !strings.Contains(lines[0], tc.flag) {
				t.Errorf("%s %v: want a one-line error naming %s, got:\n%s", tc.cli, tc.args, tc.flag, stderr)
			}
			if _, err := os.Stat(perfOut); err == nil {
				t.Errorf("%s %v wrote %s before failing", tc.cli, tc.args, perfOut)
			}
		})
	}
}

// TestNvbenchAllGolden runs the built `nvbench -all` end to end and requires
// its stdout to equal bench/testdata/eval-all.golden, the committed
// transcript the benchmark module also checks: the entry order, every
// heading and every entry's output, the migration, depth, breakdown and
// latency tables included. The memo keys cells on the plan-cache mode, so
// the transcript must also hold sequentially and with the cache off.
func TestNvbenchAllGolden(t *testing.T) {
	dir := buildCLIs(t)
	want, err := os.ReadFile(filepath.Join("bench", "testdata", "eval-all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		env  []string
		args []string
	}{
		{nil, []string{"-all"}},
		{nil, []string{"-all", "-parallel", "1"}},
		{[]string{hyper.NoPlanCacheEnv + "=1"}, []string{"-all"}},
	} {
		run := strings.Join(append(tc.env, tc.args...), " ")
		stdout, stderr, code := runCLI(t, filepath.Join(dir, "nvbench"), cleanEnv(tc.env...), tc.args...)
		if code != 0 {
			t.Fatalf("nvbench %s exited %d: %s", run, code, stderr)
		}
		if err := firstDiff(stdout, string(want)); err != nil {
			t.Fatalf("nvbench %s differs from eval-all.golden: %v", run, err)
		}
	}
}

// cliTranscripts are CLI surfaces pinned byte for byte. Each row's
// committed transcript, testdata/cli/<name>.txt, is the command line, the
// exit code and stdout; NVSIM_UPDATE_GOLDEN=1 rewrites the transcripts,
// only ever for a deliberate output change.
var cliTranscripts = []struct {
	name string
	cli  string
	args []string
}{
	{"nvtrace-sendipi-l3-dvh", "nvtrace", []string{"-depth", "3", "-micro", "SendIPI", "-dvh", "-timeline", "-stages"}},
	{"nvtrace-hypercall-l2", "nvtrace", []string{"-depth", "2", "-micro", "Hypercall", "-stages"}},
	{"nvsim-l3-dvh-all", "nvsim", []string{"-depth", "3", "-io", "dvh", "-workload", "all", "-txns", "300", "-stats", "-breakdown"}},
	{"nvtrace-devnotify-l3", "nvtrace", []string{"-depth", "3", "-micro", "DevNotify", "-stages"}},
	{"nvtrace-programtimer-l3-dvh", "nvtrace", []string{"-depth", "3", "-micro", "ProgramTimer", "-dvh", "-stages"}},
	{"nvtrace-sendipi-l1", "nvtrace", []string{"-depth", "1", "-micro", "SendIPI", "-stages"}},
	{"nvsim-l2-passthrough-all", "nvsim", []string{"-depth", "2", "-io", "passthrough", "-workload", "all", "-txns", "300", "-stats", "-breakdown"}},
	{"nvsim-l2-dvh-vp-xen-all", "nvsim", []string{"-depth", "2", "-io", "dvh-vp", "-guest", "xen", "-workload", "all", "-txns", "300", "-stats", "-breakdown"}},
}

// TestCLITranscripts runs every cliTranscripts row on the built CLIs and
// compares its transcript with the committed one.
func TestCLITranscripts(t *testing.T) {
	dir := buildCLIs(t)
	for _, tc := range cliTranscripts {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stdout, _, code := runCLI(t, filepath.Join(dir, tc.cli), cleanEnv(), tc.args...)
			got := fmt.Sprintf("$ %s %s\nexit %d\n%s", tc.cli, strings.Join(tc.args, " "), code, stdout)
			path := filepath.Join("testdata", "cli", tc.name+".txt")
			if os.Getenv("NVSIM_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := firstDiff(got, string(want)); err != nil {
				t.Fatalf("%s differs from its transcript: %v", path, err)
			}
		})
	}
}

// firstDiff reports the first line at which got and want differ, or nil
// when they are equal.
func firstDiff(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Errorf("line %d:\n got: %q\nwant: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("%d lines, want %d", len(g), len(w))
}
