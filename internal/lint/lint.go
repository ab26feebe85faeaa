// Package lint implements nvlint, a simulator-aware static analyzer for this
// module. The compiler cannot see the properties the simulator's credibility
// rests on — bit-identical runs at any parallelism width, a 0 allocs/op
// nested-exit hot path, and exit-reason handling that covers every reason the
// model can emit — so nvlint proves them on every path, not just executed
// ones. It is built only on the standard library (go/parser, go/ast,
// go/types): the module is dependency-free and stays that way.
//
// A rule earns its place only by catching a bug class tests cannot: a test
// sees the paths it executes, a rule every path. Each entry names what the
// rule checks, then (after "catches:") a mutant of that bug class that every
// test and fuzz seed survives and only the rule reports.
//
//	determinism  no time.Now, unseeded math/rand, go statements outside the
//	             allowed packages, and no map ranges whose order can reach
//	             simulator output (sorted-collect idiom or //nvlint:ordered
//	             allowlists a range); catches: a time.Now read in engine
//	             code, before its value reaches any output a golden compares
//	hotalloc     no allocating constructs in functions reachable from the
//	             hot-path roots (World.Execute, Interceptor.TryHandle);
//	             catches: a fmt.Sprintf on a hot branch no AllocsPerRun test
//	             takes
//	exhaustive   switches over module-declared enum types cover every
//	             constant or carry an explicit default; catches: a new
//	             hyper.OpKind that nothing uses yet
//	nopanic      panic() is forbidden in non-test engine packages; catches:
//	             a panic on an error return no test reaches
//
// v2 rule (an architectural contract of the exit pipeline):
//
//	cachegen     every field the plan compiler reads is covered by a
//	             generation counter (or explicitly allowlisted as a
//	             non-input), generation setters really bump their counter,
//	             and guarded fields are written only by their setter;
//	             catches: a compile-path World field read that is not in
//	             GuardedReads (ProvideVIOMMU once skipped its CapsGen bump)
//
// Those are the five rules. Beside them, //nvlint comments that no longer
// suppress anything are themselves flagged (rule "directive", reported via
// -unused-directives).
//
// Three contracts are held by structure and tests instead: a declining
// interceptor leaves engine state untouched and reports a constant (name,
// priority) (TestDeclinedInterceptorsLeaveStateUnchanged in
// internal/check); hyper.Op stays by value (a pointer makes it escape, which
// the AllocsPerRun tests of internal/hyper and internal/workload report);
// and every exit transaction is opened and settled exactly once, because one
// function, hyper's transact, does both for every boundary
// (TestBoundarySettlePaths drives each boundary's success and error paths,
// and the stage-table goldens pin which stage each site charges).
package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Rule identifiers, as used in findings and //nvlint:ignore directives.
const (
	RuleDeterminism = "determinism"
	RuleHotAlloc    = "hotalloc"
	RuleExhaustive  = "exhaustive"
	RuleNoPanic     = "nopanic"
	RuleCacheGen    = "cachegen"
	RuleDirective   = "directive"
)

// Config selects what to analyze and how.
type Config struct {
	// Dir is the module root (the directory holding go.mod, or any tree of
	// packages when ModulePath is set explicitly).
	Dir string
	// ModulePath is the module's import path; read from Dir/go.mod when
	// empty.
	ModulePath string
	// Deps maps extra import paths to directories, letting a tree outside
	// the module (linter testdata) import real module packages.
	Deps map[string]string
	// EnginePrefixes are the import-path prefixes the determinism and
	// nopanic rules apply to. Defaults to ModulePath+"/internal/".
	EnginePrefixes []string
	// GoStmtAllowed lists packages where go statements are permitted.
	GoStmtAllowed []string
	// HotRoots are the allocation-freedom roots: "pkg/path.Func",
	// "pkg/path.(*Recv).Method", or "pkg/path.Iface.Method" (every module
	// implementation of the interface method becomes a root).
	HotRoots []string
	// CacheGen, when set, enables the plan-cache generation-soundness rule.
	CacheGen *CacheGenConfig
}

// CacheGenConfig configures the cachegen rule: the plan replay cache is
// sound only if every input the compile path reads is invalidated by a
// generation counter. The rule walks the call graph from the compile roots
// and flags any field read of a watched type that is not in the guarded set —
// so a new cost or capability field wired into compilation without a matching
// generation bump fails the build instead of serving stale plans.
type CacheGenConfig struct {
	// CompileRoots are the call-graph roots of the plan compile path
	// ("pkg/path.(*Recv).Method" forms, as for HotRoots).
	CompileRoots []string
	// WatchedTypes are the named struct types ("pkg/path.Name") whose field
	// reads on the compile path must be generation-guarded.
	WatchedTypes []string
	// GuardedReads allowlists compile-path reads: keys are "pkg/path.Type"
	// (every field of the type) or "pkg/path.Type.Field" (one field); values
	// name the generation counter or the reason the read is not a plan input.
	GuardedReads map[string]string
	// GenBumps maps a generation setter ("pkg/path.(*Recv).Method") to the
	// counter fields ("pkg/path.Type.Field") its body must increment — more
	// than one for setters like SetProfile that replace several guarded
	// inputs at once. Deleting any of the bumps from the setter fails the
	// rule.
	GenBumps map[string][]string
	// SetterOnly maps a guarded field ("pkg/path.Type.Field") to the only
	// functions allowed to assign it; a write anywhere else would bypass the
	// generation bump and is flagged.
	SetterOnly map[string][]string
}

// Finding is one rule violation.
type Finding struct {
	// File is the path of the offending file, Line its 1-based line.
	File string
	Line int
	// Rule is the rule identifier.
	Rule string
	// Msg describes the violation.
	Msg string
	// Chain, for hotalloc findings, is the call chain from a hot root to
	// the function holding the allocation.
	Chain []string
	// SuppressReason is set on suppressed findings: the //nvlint:ignore
	// reason text.
	SuppressReason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Result is the outcome of a lint run.
type Result struct {
	// Findings are the active violations, sorted by file, line, rule.
	Findings []Finding
	// Suppressed are findings covered by //nvlint:ignore, same order.
	Suppressed []Finding
	// Unused are the directives that took no effect during the run (rule
	// "directive", same sort order). nvlint -unused-directives promotes them
	// to failing findings; a stale suppression is a contract nobody checks.
	Unused []Finding
	// RulesRun lists the rule identifiers that executed, sorted.
	RulesRun []string
	// HotFuncs is the number of functions in the hot set (for -v).
	HotFuncs int
}

// ModuleConfig returns the configuration nvlint uses for this repository:
// the DVH engine's hot roots, the plan-cache contract, and the parallel
// runner as the only package allowed to start goroutines.
func ModuleConfig(dir string) (Config, error) {
	cfg := Config{Dir: dir}
	mp, err := modulePath(dir)
	if err != nil {
		return cfg, err
	}
	cfg.ModulePath = mp
	cfg.EnginePrefixes = []string{mp + "/internal/"}
	cfg.GoStmtAllowed = []string{mp + "/internal/parallel"}
	cfg.HotRoots = []string{
		mp + "/internal/hyper.(*World).Execute",
		mp + "/internal/hyper.Interceptor.TryHandle",
		// The per-stage observability sink runs at every outermost settle,
		// inside Execute's allocation-freedom contract; rooting it directly
		// keeps it covered even if the settle wiring moves.
		mp + "/internal/hyper.(*StageStats).observe",
	}
	// cachegen: the plan replay cache (internal/hyper/plan.go) bakes
	// compile-path reads into cached plans; every one of them must be
	// covered by a generation counter or be provably not a plan input. The
	// walk from compilePlan — the one compile root of every plan kind —
	// reaches both chargeSink implementations (the live World sink and the
	// recording planBuilder) and every Personality, so the allowlist names
	// exactly the state those read.
	cfg.CacheGen = &CacheGenConfig{
		CompileRoots: []string{
			mp + "/internal/hyper.(*World).compilePlan",
		},
		WatchedTypes: []string{
			mp + "/internal/hyper.World",
			mp + "/internal/hyper.Hypervisor",
			mp + "/internal/hyper.CostModel",
			mp + "/internal/hyper.VCPU",
			mp + "/internal/hyper.VM",
			mp + "/internal/machine.Machine",
		},
		GuardedReads: map[string]string{
			mp + "/internal/hyper.CostModel":              "CostGen: World.SetCosts replaces the whole model and bumps Machine.CostGen",
			mp + "/internal/hyper.World.Costs":            "CostGen: the sole write path is World.SetCosts",
			mp + "/internal/hyper.World.Host":             "fixed at World construction",
			mp + "/internal/hyper.World.Plan":             "cache meta-counters, not a plan input",
			mp + "/internal/hyper.World.Tracer":           "a traced World never replays",
			mp + "/internal/hyper.Hypervisor.Caps":        "CapsGen: post-setup writers (SetHostCaps, ProvideVIOMMU) bump it",
			mp + "/internal/hyper.Hypervisor.Personality": "TopoGen on stack changes, plus per-plan personality pinning at replay",
			mp + "/internal/hyper.Hypervisor.Machine":     "fixed at hypervisor construction",
			mp + "/internal/machine.Machine.Stats":        "emission sink, not a plan input",
		},
		GenBumps: map[string][]string{
			mp + "/internal/hyper.(*World).SetCosts":    {mp + "/internal/machine.Machine.CostGen"},
			mp + "/internal/hyper.(*World).SetHostCaps": {mp + "/internal/machine.Machine.CapsGen"},
			mp + "/internal/hyper.(*VM).ProvideVIOMMU":  {mp + "/internal/machine.Machine.CapsGen"},
			// A calibration-profile swap replaces the cost model AND the host
			// capability word; a compiled plan bakes both in, so SetProfile
			// must move both generations — bumping only one would leave plans
			// keyed on the other replaying stale state.
			mp + "/internal/hyper.(*World).SetProfile": {
				mp + "/internal/machine.Machine.CostGen",
				mp + "/internal/machine.Machine.CapsGen",
			},
		},
		SetterOnly: map[string][]string{
			mp + "/internal/hyper.World.Costs": {
				mp + "/internal/hyper.(*World).SetCosts",
				mp + "/internal/hyper.(*World).SetProfile",
			},
			// ProvideVIOMMU propagates the vIOMMU capability bits into a
			// nested hypervisor's word; it carries the same CapsGen bump
			// obligation as SetHostCaps (enforced by GenBumps above), and
			// SetProfile installs a profile's capability word the same way.
			mp + "/internal/hyper.Hypervisor.Caps": {
				mp + "/internal/hyper.(*World).SetHostCaps",
				mp + "/internal/hyper.(*VM).ProvideVIOMMU",
				mp + "/internal/hyper.(*World).SetProfile",
			},
		},
	}
	return cfg, nil
}

// modulePath reads the module path from dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
}

// Run loads the configured packages and applies every rule.
func Run(cfg Config) (*Result, error) {
	if cfg.ModulePath == "" {
		mp, err := modulePath(cfg.Dir)
		if err != nil {
			return nil, err
		}
		cfg.ModulePath = mp
	}
	if cfg.EnginePrefixes == nil {
		cfg.EnginePrefixes = []string{cfg.ModulePath + "/internal/"}
	}
	prog, err := load(&cfg)
	if err != nil {
		return nil, err
	}
	g := buildCallGraph(prog)

	rules := []string{RuleDeterminism, RuleNoPanic, RuleExhaustive, RuleHotAlloc}
	var all []Finding
	all = append(all, checkDeterminism(prog, &cfg)...)
	all = append(all, checkNoPanic(prog, &cfg)...)
	all = append(all, checkExhaustive(prog, &cfg)...)
	hot, nHot, err := checkHotAlloc(prog, &cfg, g)
	if err != nil {
		return nil, err
	}
	all = append(all, hot...)
	if cfg.CacheGen != nil {
		rules = append(rules, RuleCacheGen)
		fs, err := checkCacheGen(prog, &cfg, g)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}

	res := &Result{HotFuncs: nHot}
	for _, f := range all {
		if f.SuppressReason != "" {
			res.Suppressed = append(res.Suppressed, f)
		} else {
			res.Findings = append(res.Findings, f)
		}
	}
	// Directive accounting runs last: every rule has had its chance to mark
	// the directives it consumed.
	res.Unused = unusedDirectives(prog)
	sort.Strings(rules)
	res.RulesRun = rules
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	sortFindings(res.Unused)
	return res, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// engineScoped reports whether the rule families restricted to engine code
// (determinism, nopanic) apply to this package.
func engineScoped(cfg *Config, pkgPath string) bool {
	for _, p := range cfg.EnginePrefixes {
		if pkgPath == strings.TrimSuffix(p, "/") || strings.HasPrefix(pkgPath, p) {
			return true
		}
	}
	return false
}
