package experiment

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// migrationRoundsGolden sits outside testdata/golden, whose files
// TestGoldenMatrix reads as registry entries.
const migrationRoundsGolden = "testdata/migration-rounds.golden"

// roundsBandwidth slows the link enough that every Section 4 cell iterates
// pre-copy: at 268 Mbps each stops after its first round.
const roundsBandwidth = 100_000_000

// TestMigrationRoundsGolden pins multi-round pre-copy. It runs the four
// Section 4 migrations at roundsBandwidth, where they take 3, 3, 5 and 4
// rounds, and renders every Report field and the number of pages VerifyDest
// finds differing. A round that sends its dirty set without resetting it, or
// a union that leaves the VM's log set, re-sends pages in every later round
// and moves PagesSent here, though the one-round cells of the entry's output
// cannot show it.
func TestMigrationRoundsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range migrationCells {
		plan, err := c.plan()
		if err != nil {
			t.Fatal(err)
		}
		plan.Options.BandwidthBitsPerSec = roundsBandwidth
		rep, err := plan.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		bad, err := plan.VerifyDest()
		if err != nil {
			t.Fatalf("%s verify: %v", c.label, err)
		}
		fmt.Fprintf(&b, "== %s\n%+v\nverify_dest=%d\n", c.label, rep, len(bad))
	}
	checkGolden(t, filepath.FromSlash(migrationRoundsGolden), b.String())
}
