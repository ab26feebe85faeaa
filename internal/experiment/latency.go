package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// LatencyRow reports one configuration's per-transaction latency
// distribution for a workload — an extension of the paper's throughput
// numbers: exit multiplication does not just lower the mean, it stretches
// the tail, because transactions that happen to hit a timer re-arm or an
// idle transition stack several forwarded exits.
type LatencyRow struct {
	Workload string
	Config   string
	P50      sim.Cycles
	P99      sim.Cycles
	Max      sim.Cycles
	MeanUS   float64 // mean latency in microseconds at the platform clock
}

// LatencyTails measures the request-latency distribution of the
// latency-bound workloads under the nested baseline and full DVH, projected
// from the latency histograms of the matching Figure 7 cells.
func LatencyTails() ([]LatencyRow, error) {
	configs := []appConfig{
		{"Nested VM", Spec{Depth: 2, IO: IOParavirt}},
		{"Nested VM+DVH", Spec{Depth: 2, IO: IODVH}},
	}
	var profiles []workload.Profile
	for _, name := range []string{"Netperf RR", "Memcached", "Apache"} {
		p, ok := workload.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown workload %q", name)
		}
		profiles = append(profiles, p)
	}
	return cellsOf(configs, profiles, func(label string, rec *cellRecord) LatencyRow {
		lat := &rec.result.Latency
		return LatencyRow{
			Workload: rec.result.Profile.Name,
			Config:   label,
			P50:      lat.Quantile(0.50),
			P99:      lat.Quantile(0.99),
			Max:      lat.Max(),
			MeanUS:   lat.Mean() / sim.DefaultClockHz * 1e6,
		}
	})
}

// FormatLatency renders the distribution table.
func FormatLatency(rows []LatencyRow) string {
	var b strings.Builder
	b.WriteString("Per-transaction latency (cycles; log2-bucket upper bounds)\n")
	fmt.Fprintf(&b, "%-14s %-18s %12s %12s %12s %10s\n", "workload", "config", "p50<=", "p99<=", "max", "mean(us)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-18s %12v %12v %12v %10.1f\n",
			r.Workload, r.Config, r.P50, r.P99, r.Max, r.MeanUS)
	}
	return b.String()
}

// markdownLatency renders the distribution table as Markdown.
func markdownLatency(rows []LatencyRow) string {
	var b strings.Builder
	b.WriteString("| Workload | Config | p50<= | p99<= | mean (us) |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %v | %v | %.1f |\n", r.Workload, r.Config, r.P50, r.P99, r.MeanUS)
	}
	return b.String()
}
