// nvreport regenerates the full evaluation as a Markdown report — the live
// counterpart of the repository's EXPERIMENTS.md. Every table and figure is
// re-measured and rendered as Markdown tables, so the committed document can
// always be checked against a fresh run:
//
//	nvreport > report.md
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/lint"
	"repro/internal/profile"
)

// sections are the registry entries the report prints, in its own order:
// Table 3 is followed by its stage breakdown and by the storms in its
// layout, and Figure 7 by its per-workload stage view. The per-mechanism
// breakdown and the profile sweep are not in the report.
var sections = []string{"table3", "stages", "storms", "figure7", "workload-stages", "figure8", "figure9", "figure10", "migration", "depth", "latency"}

func main() {
	profName := flag.String("profile", "", "calibration profile (default $NVSIM_PROFILE, then "+profile.DefaultName+")")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nvreport: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	prof, err := profile.Resolve(*profName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvreport: %v\n", err)
		os.Exit(2)
	}
	experiment.SetDefaultProfile(prof.Name)

	fmt.Println("# nvsim evaluation report")
	fmt.Println()
	fmt.Println("Regenerated by `go run ./cmd/nvreport`. All values are deterministic.")
	fmt.Println()
	fmt.Printf("Calibration profile: `%s` — %s. Anchors: %s.\n", prof.Name, prof.Description, prof.AnchorString())

	for _, name := range sections {
		e, ok := experiment.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "nvreport: no evaluation entry %q\n", name)
			os.Exit(1)
		}
		section(e.Section, func() error {
			out, err := e.Render(experiment.Markdown)
			fmt.Print(out)
			return err
		})
	}
	section("Static contract audit (nvlint)", lintSummary)
}

func section(title string, fn func() error) {
	fmt.Printf("\n## %s\n\n", title)
	if err := fn(); err != nil {
		fmt.Fprintf(os.Stderr, "nvreport: %s: %v\n", title, err)
		os.Exit(1)
	}
}

// lintSummary documents the statically-proven contracts behind the measured
// numbers: which nvlint rules ran and what each found. Running outside the
// module tree degrades to a note instead of aborting the report — the
// measurements above stand on their own.
func lintSummary() error {
	cfg, err := lint.ModuleConfig(".")
	if err != nil {
		fmt.Printf("nvlint could not analyze this tree: %v\n", err)
		return nil
	}
	res, err := lint.Run(cfg)
	if err != nil {
		fmt.Printf("nvlint could not analyze this tree: %v\n", err)
		return nil
	}
	active := map[string]int{}
	for _, f := range res.Findings {
		active[f.Rule]++
	}
	suppressed := map[string]int{}
	for _, f := range res.Suppressed {
		suppressed[f.Rule]++
	}
	fmt.Println("| Rule | active findings | suppressed (justified) |")
	fmt.Println("|---|---|---|")
	for _, rule := range res.RulesRun {
		fmt.Printf("| %s | %d | %d |\n", rule, active[rule], suppressed[rule])
	}
	fmt.Println()
	fmt.Printf("%d hot-path functions proven allocation-free; %d stale //nvlint directives.\n",
		res.HotFuncs, len(res.Unused))
	return nil
}
