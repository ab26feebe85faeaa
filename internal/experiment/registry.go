package experiment

// Format selects how an entry renders.
type Format string

const (
	// Text is the paper-style text table nvbench prints.
	Text Format = "table"
	// Chart draws an application figure as an ASCII bar chart followed by
	// per-configuration summaries.
	Chart Format = "chart"
	// CSV lists an application figure's bars, one per line.
	CSV Format = "csv"
	// Markdown is the table nvreport prints.
	Markdown Format = "markdown"
)

// Entry is one table, figure or experiment of the evaluation: what the
// nvbench flags select, what `nvbench -all` and nvreport print, and what the
// tests render.
type Entry struct {
	// Name is "table3", "figure7" … "figure10", or an -experiment name.
	Name string
	// Heading is the line nvbench prints above the entry's output; it is
	// empty for the figures, whose text carries its own title.
	Heading string
	// Section is the entry's nvreport section title; it is empty for the
	// entries nvreport leaves out.
	Section string
	// SkipAll leaves the entry out of `nvbench -all`.
	SkipAll bool
	// Render computes the entry and renders it. Only the application
	// figures draw charts and CSV; every other entry prints its text table
	// in those formats, and in Markdown too when it has no Markdown table.
	Render func(Format) (string, error)
}

// Entries returns the registry in `nvbench -all` order.
func Entries() []Entry {
	return []Entry{
		{Name: "table3", Heading: "Table 3: microbenchmark performance in CPU cycles",
			Section: "Table 3 — microbenchmark performance in CPU cycles",
			Render:  tabulated(Table3, FormatTable3, markdownTable3)},
		{Name: "figure7", Section: "Figure 7 — application overhead, 2 levels",
			Render: figure("Figure 7: application performance (2 levels)", Figure7)},
		{Name: "figure8", Section: "Figure 8 — DVH technique breakdown",
			Render: figure("Figure 8: application performance breakdown", Figure8)},
		{Name: "figure9", Section: "Figure 9 — application overhead, 3 levels",
			Render: figure("Figure 9: application performance in L3 VM", Figure9)},
		{Name: "figure10", Section: "Figure 10 — Xen on KVM",
			Render: figure("Figure 10: application performance, Xen on KVM", Figure10)},
		{Name: "migration", Heading: "Migration (Section 4)", Section: "Migration (Section 4)",
			Render: tabulated(Migration, FormatMigration, markdownMigration)},
		{Name: "depth", Heading: "Depth sweep (Table 3 extended beyond the paper)", Section: "Depth sweep (extension)",
			Render: tabulated(func() ([]DepthRow, error) { return DepthSweep(4) }, FormatDepthSweep, markdownDepthSweep)},
		{Name: "breakdown", Heading: "Per-mechanism cycle attribution (the cause behind Figure 8)",
			Render: tabulated(Breakdown, FormatBreakdown, nil)},
		{Name: "stages", Heading: "Per-stage cycle attribution of Table 3 (the pipeline view)",
			Section: "Table 3 stage breakdown — where the cycles go in the exit pipeline",
			Render:  tabulated(StageBreakdown, FormatStageBreakdown, markdownStageBreakdown)},
		{Name: "stages-sweep", Heading: "Per-stage cycle attribution across calibration profiles", SkipAll: true,
			Render: tabulated(stagesSweep, formatStagesSweep, nil)},
		{Name: "workload-stages", Heading: "Per-workload stage attribution (Figure 7 application mixes)",
			Section: "Per-workload stage breakdown — Figure 7 mixes through the pipeline",
			Render:  tabulated(WorkloadStageBreakdown, FormatWorkloadStageBreakdown, markdownWorkloadStages)},
		{Name: "storms", Heading: "Delivery storms (timer-storm, ipi-flood)", Section: "Delivery storms — cycles per delivered event",
			Render: tabulated(DeliveryStorms, FormatStorms, markdownStorms)},
		{Name: "latency", Heading: "Per-transaction latency tails", Section: "Latency tails (extension)",
			Render: tabulated(LatencyTails, FormatLatency, markdownLatency)},
	}
}

// Lookup finds an entry by name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Entries() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// tabulated is the render step of an entry whose rows print as one text
// table, or as a Markdown table where it has one.
func tabulated[T any](compute func() (T, error), text, markdown func(T) string) func(Format) (string, error) {
	return func(f Format) (string, error) {
		rows, err := compute()
		if err != nil {
			return "", err
		}
		if f == Markdown && markdown != nil {
			return markdown(rows), nil
		}
		return text(rows), nil
	}
}
