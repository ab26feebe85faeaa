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
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiment"
	"repro/internal/profile"
	"repro/internal/report"
)

// experiments are the values -experiment accepts.
var experiments = []string{"migration", "depth", "breakdown", "stages", "stages-sweep", "workload-stages", "storms", "latency"}

func main() {
	table := flag.Int("table", 0, "regenerate a table (3)")
	figure := flag.Int("figure", 0, "regenerate a figure (7, 8, 9, 10)")
	exp := flag.String("experiment", "", "regenerate a named experiment ("+strings.Join(experiments, " | ")+")")
	all := flag.Bool("all", false, "regenerate everything")
	par := flag.Int("parallel", 0, "worker goroutines for experiment cells: 0 = auto (NVSIM_PARALLEL or GOMAXPROCS), 1 = sequential")
	profName := flag.String("profile", "", "calibration profile (default $NVSIM_PROFILE, then "+profile.DefaultName+"); see -list-profiles")
	listProfiles := flag.Bool("list-profiles", false, "list registered calibration profiles and exit")
	flag.StringVar(&format, "format", "table", "figure output format: table | chart | csv")
	flag.Parse()
	if *listProfiles {
		printProfiles()
		return
	}
	figures := map[int]func() (string, error){
		7: func() (string, error) {
			return appFigure("Figure 7: application performance (2 levels)", experiment.Figure7)
		},
		8: func() (string, error) {
			return appFigure("Figure 8: application performance breakdown", experiment.Figure8)
		},
		9: func() (string, error) {
			return appFigure("Figure 9: application performance in L3 VM", experiment.Figure9)
		},
		10: func() (string, error) {
			return appFigure("Figure 10: application performance, Xen on KVM", experiment.Figure10)
		},
	}
	// Every flag is checked before anything runs or prints, so a usage
	// error never follows partial output.
	if *par < 0 {
		usagef("-parallel must be >= 0, got %d", *par)
	}
	switch format {
	case "table", "chart", "csv":
	default:
		usagef("unknown -format %q (valid: table, chart, csv)", format)
	}
	if *table != 0 && *table != 3 {
		usagef("unknown -table %d (the paper's reproducible table is 3)", *table)
	}
	if _, ok := figures[*figure]; *figure != 0 && !ok {
		usagef("unknown -figure %d (reproducible figures: 7, 8, 9, 10)", *figure)
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
	if *all || *table == 3 {
		run("Table 3: microbenchmark performance in CPU cycles", table3)
	}
	if *all {
		for _, n := range []int{7, 8, 9, 10} {
			run("", figures[n])
		}
	} else if *figure != 0 {
		run("", figures[*figure])
	}
	if *all || *exp == "migration" {
		run("Migration (Section 4)", migration)
	}
	if *all || *exp == "depth" {
		run("Depth sweep (Table 3 extended beyond the paper)", depthSweep)
	}
	if *all || *exp == "breakdown" {
		run("Per-mechanism cycle attribution (the cause behind Figure 8)", breakdown)
	}
	if *all || *exp == "stages" {
		run("Per-stage cycle attribution of Table 3 (the pipeline view)", stageBreakdown)
	}
	if *exp == "stages-sweep" {
		run("Per-stage cycle attribution across calibration profiles", stagesSweep)
	}
	if *all || *exp == "workload-stages" {
		run("Per-workload stage attribution (Figure 7 application mixes)", workloadStages)
	}
	if *all || *exp == "storms" {
		run("Delivery storms (timer-storm, ipi-flood)", storms)
	}
	if *all || *exp == "latency" {
		run("Per-transaction latency tails", latency)
	}
}

// format selects figure rendering: the paper-style matrix, an ASCII bar
// chart shaped like the figures, or CSV.
var format string

func run(title string, fn func() (string, error)) {
	out, err := fn()
	if err != nil {
		fatalf("%v", err)
	}
	if title != "" {
		fmt.Println(title)
	}
	fmt.Println(out)
}

func table3() (string, error) {
	rows, err := experiment.Table3()
	if err != nil {
		return "", err
	}
	return experiment.FormatTable3(rows), nil
}

func appFigure(title string, fn func() ([]experiment.AppResult, error)) (string, error) {
	res, err := fn()
	if err != nil {
		return "", err
	}
	bars := make([]report.Bar, 0, len(res))
	for _, r := range res {
		bars = append(bars, report.Bar{Group: r.Workload, Series: r.Config, Value: r.Overhead})
	}
	switch format {
	case "chart":
		out := report.BarChart(title+" (overhead vs native)", bars, report.ChartOptions{Width: 50, Cap: 14, Unit: "x"})
		return out + "\n" + report.FormatSummaries(report.Summarize(bars)), nil
	case "csv":
		return report.CSV(bars), nil
	default:
		return experiment.FormatAppResults(title, res), nil
	}
}

func depthSweep() (string, error) {
	rows, err := experiment.DepthSweep(4)
	if err != nil {
		return "", err
	}
	return experiment.FormatDepthSweep(rows), nil
}

func breakdown() (string, error) {
	rows, err := experiment.Breakdown()
	if err != nil {
		return "", err
	}
	return experiment.FormatBreakdown(rows), nil
}

func stageBreakdown() (string, error) {
	rows, err := experiment.StageBreakdown()
	if err != nil {
		return "", err
	}
	return experiment.FormatStageBreakdown(rows), nil
}

// stagesSweep re-derives the Table 3 stage attribution under every registered
// calibration profile, in profile.All's sorted order. The default profile's
// block is byte-identical to -experiment stages.
func stagesSweep() (string, error) {
	var b strings.Builder
	for i, p := range profile.All() {
		if i > 0 {
			b.WriteByte('\n')
		}
		rows, err := experiment.StageBreakdownUnder(p.Name)
		if err != nil {
			return "", fmt.Errorf("profile %s: %w", p.Name, err)
		}
		fmt.Fprintf(&b, "profile %s — %s\n", p.Name, p.Description)
		b.WriteString(experiment.FormatStageBreakdown(rows))
	}
	return b.String(), nil
}

func workloadStages() (string, error) {
	rows, err := experiment.WorkloadStageBreakdown()
	if err != nil {
		return "", err
	}
	return experiment.FormatWorkloadStageBreakdown(rows), nil
}

func storms() (string, error) {
	rows, err := experiment.DeliveryStorms()
	if err != nil {
		return "", err
	}
	return experiment.FormatStorms(rows), nil
}

func latency() (string, error) {
	rows, err := experiment.LatencyTails()
	if err != nil {
		return "", err
	}
	return experiment.FormatLatency(rows), nil
}

func migration() (string, error) {
	rows, err := experiment.Migration()
	if err != nil {
		return "", err
	}
	return experiment.FormatMigration(rows), nil
}

// printProfiles lists the registered calibration profiles — name,
// description and anchor set — sorted by name (profile.All's order), so the
// listing is deterministic.
func printProfiles() {
	for _, p := range profile.All() {
		marker := ""
		if p.Name == profile.DefaultName {
			marker = " (default)"
		}
		fmt.Printf("%s%s\n  %s\n  anchors: %s\n", p.Name, marker, p.Description, p.AnchorString())
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
