package trace

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for _, c := range []sim.Cycles{100, 200, 400, 800, 100000} {
		h.Observe(c)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 100 || h.Max() != 100000 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	wantMean := float64(100+200+400+800+100000) / 5
	if h.Mean() != wantMean {
		t.Fatalf("Mean = %v, want %v", h.Mean(), wantMean)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 99 cheap samples, one enormous: p50 must stay cheap, p995+ catches
	// the outlier.
	for i := 0; i < 99; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)
	p50 := h.Quantile(0.5)
	if p50 > 2048 {
		t.Fatalf("p50 = %v, should be in the cheap bucket", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 500_000 {
		t.Fatalf("p99.9 = %v, should catch the outlier", p999)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("quantile extremes wrong")
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var h Histogram
		for _, v := range raw {
			h.Observe(sim.Cycles(v%1_000_000 + 1))
		}
		if h.Count() == 0 {
			return true
		}
		qs := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
		vals := make([]sim.Cycles, len(qs))
		for i, q := range qs {
			vals[i] = h.Quantile(q)
		}
		return sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) ||
			isNonDecreasing(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func isNonDecreasing(v []sim.Cycles) bool {
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			return false
		}
	}
	return true
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	if !strings.Contains(h.String(), "empty") {
		t.Fatal("empty rendering")
	}
	h.Observe(1000)
	h.Observe(40_000)
	out := h.String()
	if !strings.Contains(out, "samples=2") || !strings.Contains(out, "#") {
		t.Fatalf("histogram rendering:\n%s", out)
	}
}
