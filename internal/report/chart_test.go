package report

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample() []Bar {
	return []Bar{
		{Group: "Apache", Series: "VM", Value: 1.2},
		{Group: "Apache", Series: "Nested", Value: 3.6},
		{Group: "Apache", Series: "DVH", Value: 1.4},
		{Group: "Memcached", Series: "VM", Value: 1.4},
		{Group: "Memcached", Series: "Nested", Value: 6.0},
		{Group: "Memcached", Series: "DVH", Value: 1.8},
	}
}

func TestBarChartRendering(t *testing.T) {
	out := BarChart("Figure 7", sample())
	for _, want := range []string{"Figure 7", "Apache", "Memcached", "VM", "Nested", "DVH", "6.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The longest bar belongs to the largest value.
	lines := strings.Split(out, "\n")
	longest, label := 0, ""
	for _, l := range lines {
		n := strings.Count(l, "█")
		if n > longest {
			longest = n
			label = l
		}
	}
	if !strings.Contains(label, "Nested") || !strings.Contains(label, "6.00") {
		t.Errorf("longest bar is %q", label)
	}
	if longest != chartWidth {
		t.Errorf("max bar width = %d, want %d", longest, chartWidth)
	}
}

func TestBarChartCapMarksTruncation(t *testing.T) {
	bars := []Bar{
		{Group: "Memcached", Series: "L3", Value: 109.7},
		{Group: "Memcached", Series: "DVH", Value: 1.8},
	}
	out := BarChart("Figure 9", bars)
	if !strings.Contains(out, "▶") {
		t.Errorf("capped bar not marked:\n%s", out)
	}
	if !strings.Contains(out, "109.70") {
		t.Errorf("true value not annotated:\n%s", out)
	}
}

func TestBarChartEmptyAndZero(t *testing.T) {
	if !strings.Contains(BarChart("t", nil), "no data") {
		t.Error("empty chart should say so")
	}
	out := BarChart("t", []Bar{{Group: "g", Series: "s", Value: 0}})
	if !strings.Contains(out, "0.00") {
		t.Errorf("zero bar rendering:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out := CSV(sample())
	if !strings.HasPrefix(out, "group,series,value\n") {
		t.Fatal("missing header")
	}
	if !strings.Contains(out, "Apache,Nested,3.6") {
		t.Errorf("csv:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 7 {
		t.Errorf("csv has %d lines, want header + 6", lines)
	}
}

func TestCSVEscaping(t *testing.T) {
	out := CSV([]Bar{{Group: `with,comma`, Series: `with"quote`, Value: 1}})
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma not escaped: %s", out)
	}
	if !strings.Contains(out, `"with""quote"`) {
		t.Errorf("quote not escaped: %s", out)
	}
}

func TestSummarize(t *testing.T) {
	sums := Summarize(sample())
	if len(sums) != 3 {
		t.Fatalf("got %d summaries", len(sums))
	}
	if sums[0].Series != "VM" || sums[1].Series != "Nested" || sums[2].Series != "DVH" {
		t.Fatalf("insertion order lost: %+v", sums)
	}
	nested := sums[1]
	if nested.Min != 3.6 || nested.Max != 6.0 {
		t.Fatalf("nested min/max = %v/%v", nested.Min, nested.Max)
	}
	wantGM := math.Sqrt(3.6 * 6.0)
	if math.Abs(nested.GeoMean-wantGM) > 1e-9 {
		t.Fatalf("geomean = %v, want %v", nested.GeoMean, wantGM)
	}
	out := FormatSummaries(sums)
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "Nested") {
		t.Errorf("summary table:\n%s", out)
	}
}

func TestSummarizeGeoMeanBoundsProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		bars := make([]Bar, 0, len(vals))
		for i, v := range vals {
			bars = append(bars, Bar{Group: string(rune('a' + i%5)), Series: "s", Value: float64(v%1000) + 1})
		}
		s := Summarize(bars)[0]
		return s.GeoMean >= s.Min-1e-9 && s.GeoMean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
