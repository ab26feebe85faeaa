// nvbench regenerates every table and figure of the paper's evaluation:
//
//	nvbench -all              # everything
//	nvbench -table 3          # microbenchmark cycle costs
//	nvbench -figure 7         # app overhead, two levels, six configs
//	nvbench -figure 8         # DVH technique breakdown
//	nvbench -figure 9         # app overhead, three levels
//	nvbench -figure 10        # Xen guest hypervisor
//	nvbench -experiment migration
//	nvbench -experiment storms          # delivery-storm microworkloads
//	nvbench -experiment stages-sweep    # stage attribution on every profile
//
// The tables, figures and experiments are the entries of the evaluation
// registry (experiment.Entries), printed in its order.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/profile"
)

func main() {
	// -table N selects entry "tableN", -figure N entry "figureN", and
	// -experiment every other entry by name.
	var tables, figures, experiments []string
	for _, e := range experiment.Entries() {
		if n, ok := strings.CutPrefix(e.Name, "table"); ok {
			tables = append(tables, n)
		} else if n, ok := strings.CutPrefix(e.Name, "figure"); ok {
			figures = append(figures, n)
		} else {
			experiments = append(experiments, e.Name)
		}
	}
	table := flag.Int("table", 0, "regenerate a table ("+strings.Join(tables, ", ")+")")
	figure := flag.Int("figure", 0, "regenerate a figure ("+strings.Join(figures, ", ")+")")
	exp := flag.String("experiment", "", "regenerate a named experiment ("+strings.Join(experiments, " | ")+")")
	all := flag.Bool("all", false, "regenerate everything")
	par := flag.Int("parallel", 0, "worker goroutines for experiment cells: 0 = auto (NVSIM_PARALLEL or GOMAXPROCS), 1 = sequential")
	profName := flag.String("profile", "", "calibration profile (default $NVSIM_PROFILE, then "+profile.DefaultName+"); see -list-profiles")
	listProfiles := flag.Bool("list-profiles", false, "list registered calibration profiles and exit")
	format := flag.String("format", "table", "figure output format: table | chart | csv")
	flag.Parse()
	if flag.NArg() > 0 {
		usagef("unexpected argument %q", flag.Arg(0))
	}
	if *listProfiles {
		fmt.Print(profile.Listing())
		return
	}
	// Every flag is checked before anything runs or prints, so a usage
	// error never follows partial output.
	if *par < 0 {
		usagef("-parallel must be >= 0, got %d", *par)
	}
	switch experiment.Format(*format) {
	case experiment.Text, experiment.Chart, experiment.CSV:
	default:
		usagef("unknown -format %q (valid: table, chart, csv)", *format)
	}
	if *table != 0 && !slices.Contains(tables, strconv.Itoa(*table)) {
		usagef("unknown -table %d (the paper's reproducible table is %s)", *table, strings.Join(tables, ", "))
	}
	if *figure != 0 && !slices.Contains(figures, strconv.Itoa(*figure)) {
		usagef("unknown -figure %d (reproducible figures: %s)", *figure, strings.Join(figures, ", "))
	}
	if *exp != "" && !slices.Contains(experiments, *exp) {
		usagef("unknown -experiment %q (available: %s)", *exp, strings.Join(experiments, ", "))
	}
	prof, err := profile.Resolve(*profName)
	if err != nil {
		usagef("%v", err)
	}
	if !*all && *table == 0 && *figure == 0 && *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	experiment.SetParallelism(*par)
	experiment.SetDefaultProfile(prof.Name)

	fmt.Printf("calibration profile: %s — %s\n  anchors: %s\n\n", prof.Name, prof.Description, prof.AnchorString())
	picked := map[string]bool{"table" + strconv.Itoa(*table): true, "figure" + strconv.Itoa(*figure): true, *exp: true}
	for _, e := range experiment.Entries() {
		if !picked[e.Name] && (!*all || e.SkipAll) {
			continue
		}
		out, err := e.Render(experiment.Format(*format))
		if err != nil {
			fatalf("%v", err)
		}
		if e.Heading != "" {
			fmt.Println(e.Heading)
		}
		fmt.Println(out)
	}
}

// usagef reports a bad flag value and exits 2, the flag package's code for
// usage errors; fatalf reports a failed run and exits 1.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvbench: "+format+"\n", args...)
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvbench: "+format+"\n", args...)
	os.Exit(1)
}
