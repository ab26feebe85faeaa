// Package report renders experiment results as terminal-friendly charts:
// horizontal bar charts shaped like the paper's figures (grouped by
// workload, one bar per configuration) and CSV for machine consumption.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Bar is one value in a chart.
type Bar struct {
	// Group is the outer category (workload name in the figures).
	Group string
	// Series is the inner category (configuration name).
	Series string
	// Value is the bar length (overhead vs native in the figures).
	Value float64
}

// Chart geometry. Every chart plots overheads vs native, so values are
// labelled with an "x".
const (
	// chartWidth is the maximum bar width in characters.
	chartWidth = 50
	// chartCap truncates bars beyond this value, annotating the true value
	// at the end — how the paper's Figure 9 handles its off-scale bars.
	chartCap = 14
)

// BarChart renders bars grouped by Group, preserving first-seen order of
// groups and series.
func BarChart(title string, bars []Bar) string {
	if len(bars) == 0 {
		return title + "\n(no data)\n"
	}
	var groups, series []string
	seenG, seenS := map[string]bool{}, map[string]bool{}
	maxVal := 0.0
	for _, b := range bars {
		if !seenG[b.Group] {
			seenG[b.Group] = true
			groups = append(groups, b.Group)
		}
		if !seenS[b.Series] {
			seenS[b.Series] = true
			series = append(series, b.Series)
		}
		v := min(b.Value, chartCap)
		if v > maxVal {
			maxVal = v
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	byKey := map[string]float64{}
	for _, b := range bars {
		byKey[b.Group+"\x00"+b.Series] = b.Value
	}
	labelWidth := 0
	for _, s := range series {
		if len(s) > labelWidth {
			labelWidth = len(s)
		}
	}

	var out strings.Builder
	out.WriteString(title)
	out.WriteByte('\n')
	for _, g := range groups {
		fmt.Fprintf(&out, "%s\n", g)
		for _, s := range series {
			v, ok := byKey[g+"\x00"+s]
			if !ok {
				continue
			}
			shown := min(v, chartCap)
			n := int(shown / maxVal * chartWidth)
			if n < 1 && v > 0 {
				n = 1
			}
			bar := strings.Repeat("█", n)
			marker := ""
			if v > chartCap {
				marker = "▶"
			}
			fmt.Fprintf(&out, "  %-*s %s%s %.2fx\n", labelWidth, s, bar, marker, v)
		}
	}
	return out.String()
}

// CSV renders bars as group,series,value rows with a header, groups and
// series in first-seen order (stable for diffing).
func CSV(bars []Bar) string {
	var out strings.Builder
	out.WriteString("group,series,value\n")
	for _, b := range bars {
		fmt.Fprintf(&out, "%s,%s,%g\n", csvEscape(b.Group), csvEscape(b.Series), b.Value)
	}
	return out.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Summary computes per-series min/max/geomean across groups — the "DVH is
// within X of native across all workloads" style of claim.
type Summary struct {
	Series  string
	Min     float64
	Max     float64
	GeoMean float64
}

// Summarize aggregates bars per series.
func Summarize(bars []Bar) []Summary {
	type agg struct {
		min, max, logSum float64
		n                int
	}
	byS := map[string]*agg{}
	var order []string
	for _, b := range bars {
		a, ok := byS[b.Series]
		if !ok {
			a = &agg{min: b.Value, max: b.Value}
			byS[b.Series] = a
			order = append(order, b.Series)
		}
		if b.Value < a.min {
			a.min = b.Value
		}
		if b.Value > a.max {
			a.max = b.Value
		}
		a.logSum += math.Log(b.Value)
		a.n++
	}
	out := make([]Summary, 0, len(order))
	for _, s := range order {
		a := byS[s]
		out = append(out, Summary{
			Series:  s,
			Min:     a.min,
			Max:     a.max,
			GeoMean: math.Exp(a.logSum / float64(a.n)),
		})
	}
	return out
}

// FormatSummaries renders the aggregate table.
func FormatSummaries(sums []Summary) string {
	var out strings.Builder
	fmt.Fprintf(&out, "%-28s %8s %8s %8s\n", "configuration", "min", "geomean", "max")
	for _, s := range sums {
		fmt.Fprintf(&out, "%-28s %8.2f %8.2f %8.2f\n", s.Series, s.Min, s.GeoMean, s.Max)
	}
	return out.String()
}
