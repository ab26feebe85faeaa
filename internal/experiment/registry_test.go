package experiment

import (
	"slices"
	"strings"
	"testing"
)

// TestEntries pins the registry: its names in `nvbench -all` order with the
// profile sweep after the stage breakdown, the sweep as the only entry -all
// skips, and Lookup finding every entry and nothing else.
func TestEntries(t *testing.T) {
	var names, skipped []string
	for _, e := range Entries() {
		names = append(names, e.Name)
		if e.SkipAll {
			skipped = append(skipped, e.Name)
		}
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
	}
	want := []string{"table3", "figure7", "figure8", "figure9", "figure10", "migration", "depth",
		"breakdown", "stages", "stages-sweep", "workload-stages", "storms", "latency"}
	if !slices.Equal(names, want) {
		t.Errorf("registry order %v, want %v", names, want)
	}
	if !slices.Equal(skipped, []string{"stages-sweep"}) {
		t.Errorf("entries left out of -all: %v, want [stages-sweep]", skipped)
	}
	if _, ok := Lookup("bogus"); ok {
		t.Error("Lookup found an entry named bogus")
	}
}

// TestEntryFormats checks the render step's formats on the two entries in
// Table 3's layout: a table prints its text as a chart and as CSV, and both
// Markdown tables share the layout under their own first column.
func TestEntryFormats(t *testing.T) {
	table3, _ := Lookup("table3")
	text, err := table3.Render(Text)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{Chart, CSV} {
		if got, err := table3.Render(f); err != nil || got != text {
			t.Errorf("table3 as %s differs from its text (err %v):\n%s", f, err, got)
		}
	}
	for name, head := range map[string]string{"table3": "Benchmark", "storms": "Storm"} {
		e, _ := Lookup(name)
		md, err := e.Render(Markdown)
		if err != nil {
			t.Fatal(err)
		}
		if want := "| " + head + " | VM | nested VM | nested+DVH | L3 VM | L3+DVH |\n|---|---|---|---|---|---|\n"; !strings.HasPrefix(md, want) {
			t.Errorf("%s Markdown does not start with %q:\n%s", name, want, md)
		}
	}
}
