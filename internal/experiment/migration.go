package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/migrate"
)

// MigrationRow is one configuration of the Section 4 migration experiment.
type MigrationRow struct {
	Config    string
	TotalTime time.Duration
	Downtime  time.Duration
	PagesSent uint64
	Correct   bool // destination verified byte-identical
}

// migrationChurn approximates an application workload (Apache-like) running
// during migration: a bounded working set redirtied at a rate well under the
// 268 Mbps transfer bandwidth, as in the paper's measurements.
var migrationChurn = migrate.Churn{
	WorkingSetPages: 8192, // 32 MiB hot set
	CPUPagesPerSec:  1200,
	DMAPagesPerSec:  600,
}

// migrationCells are the four configurations of the Section 4 migration
// experiment, in table order. Each builds its own source and destination
// stacks, so the four migrations run as independent cells.
var migrationCells = []struct {
	label string
	plan  func() (*migrate.Plan, error)
}{
	// VM (level 1, paravirtual I/O).
	{"VM", func() (*migrate.Plan, error) {
		src, dst, err := buildPair(Spec{Depth: 1, IO: IOParavirt})
		if err != nil {
			return nil, err
		}
		churn := migrationChurn
		churn.DMAPagesPerSec = 0 // host interposes; all dirt is guest-visible
		return &migrate.Plan{VM: src.Target, Dest: dst.Target, Churn: churn}, nil
	}},
	// Nested VM, paravirtual I/O (guest hypervisor sees all dirt).
	{"Nested VM (paravirt)", func() (*migrate.Plan, error) {
		src, dst, err := buildPair(Spec{Depth: 2, IO: IOParavirt})
		if err != nil {
			return nil, err
		}
		churn := migrationChurn
		churn.DMAPagesPerSec = 0
		return &migrate.Plan{VM: src.Target, Dest: dst.Target, Churn: churn}, nil
	}},
	// Nested VM, DVH: virtual-passthrough with the PCI migration capability.
	{"Nested VM (DVH)", func() (*migrate.Plan, error) {
		src, dst, err := buildPair(Spec{Depth: 2, IO: IODVH})
		if err != nil {
			return nil, err
		}
		vp, ok := src.DVH.VPStateOf(src.Net)
		if !ok {
			return nil, fmt.Errorf("experiment: DVH stack without VP state")
		}
		return &migrate.Plan{
			VM: src.Target, Dest: dst.Target,
			VP: []*core.VPState{vp}, UseMigrationCap: true,
			Churn: migrationChurn,
		}, nil
	}},
	// Nested VM together with its guest hypervisor (migrate the L1 VM).
	{"Nested VM + guest hypervisor", func() (*migrate.Plan, error) {
		src, dst, err := buildPair(Spec{Depth: 2, IO: IODVH})
		if err != nil {
			return nil, err
		}
		// The nested workload's churn lands in the L1 VM's pages (dirty
		// tracking propagates down), plus the L1 hypervisor's own working
		// set; approximate with a doubled hot set.
		churn := migrationChurn
		churn.WorkingSetPages *= 2
		churn.DMAPagesPerSec = 0 // host-side interposition covers the L1 view
		return &migrate.Plan{VM: src.VMs[0], Dest: dst.VMs[0], Churn: churn}, nil
	}},
}

// Migration reproduces the paper's migration comparison: migrating a VM, a
// nested VM using paravirtual I/O, a nested VM using DVH (virtual-
// passthrough with the migration capability), and a nested VM together with
// its guest hypervisor. The paper reports the first three roughly equal and
// the last roughly twice as expensive. The four migrations run on the
// harness worker pool.
func Migration() ([]MigrationRow, error) {
	return mapCells(len(migrationCells), func(i int) (MigrationRow, error) {
		c := migrationCells[i]
		plan, err := c.plan()
		if err != nil {
			return MigrationRow{}, err
		}
		return runMigration(c.label, plan)
	})
}

// buildPair assembles the source and destination stacks of one migration.
func buildPair(spec Spec) (src, dst *Stack, err error) {
	if src, err = Build(spec); err != nil {
		return nil, nil, err
	}
	if dst, err = Build(spec); err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

func runMigration(label string, plan *migrate.Plan) (MigrationRow, error) {
	rep, err := plan.Run()
	if err != nil {
		return MigrationRow{}, fmt.Errorf("%s: %w", label, err)
	}
	bad, err := plan.VerifyDest()
	if err != nil {
		return MigrationRow{}, fmt.Errorf("%s verify: %w", label, err)
	}
	return MigrationRow{
		Config:    label,
		TotalTime: rep.TotalTime.Round(time.Millisecond),
		Downtime:  rep.Downtime.Round(time.Millisecond),
		PagesSent: rep.PagesSent,
		Correct:   len(bad) == 0,
	}, nil
}

// FormatMigration renders the migration comparison.
func FormatMigration(rows []MigrationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live migration at %d Mbps (QEMU default)\n", migrate.DefaultBandwidth/1_000_000)
	fmt.Fprintf(&b, "%-32s %12s %10s %10s %8s\n", "", "total", "downtime", "pages", "correct")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %12v %10v %10d %8v\n", r.Config, r.TotalTime, r.Downtime, r.PagesSent, r.Correct)
	}
	return b.String()
}

// markdownMigration renders the migration comparison as a Markdown table.
func markdownMigration(rows []MigrationRow) string {
	var b strings.Builder
	b.WriteString("| Configuration | total | downtime | pages | verified |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %v | %v | %d | %v |\n", r.Config, r.TotalTime, r.Downtime, r.PagesSent, r.Correct)
	}
	return b.String()
}
