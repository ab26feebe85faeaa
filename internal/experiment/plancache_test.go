package experiment

import (
	"testing"

	"repro/internal/hyper"
)

// renderMatrix runs the Table 3 and Figure 7/8 cells and concatenates their
// formatted output — the byte surface nvbench -all and nvartifact print.
// Figures 9/10 exercise no path Figure 8 does not (deeper stacks and Xen
// guests are covered by the Table 3 L3 rows and the hyper-level equivalence
// matrix), and the A/B runs the whole matrix four times.
func renderMatrix(t *testing.T) string {
	t.Helper()
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable3(rows)
	f7, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	out += FormatAppResults("Figure 7", f7)
	f8, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	out += FormatAppResults("Figure 8", f8)
	// The per-stage attribution of every Table 3 cell rides along: its
	// byte-identity across cache modes and widths is the tentpole claim that
	// stage observability cannot tell replayed plans from the live recursion.
	sb, err := StageBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	out += FormatStageBreakdown(sb)
	// The delivery storms and the per-workload stage attribution exercise the
	// delivery kinds of the plan cache (injection, cascade, wake, switch) in
	// steady state — their byte-identity across cache modes is their A/B
	// contract.
	storms, err := DeliveryStorms()
	if err != nil {
		t.Fatal(err)
	}
	out += FormatStorms(storms)
	ws, err := WorkloadStageBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	out += FormatWorkloadStageBreakdown(ws)
	return out
}

// TestPlanCacheOutputIdentity is the metamorphic A/B contract of the plan
// replay cache: the rendered experiment matrix — what nvbench
// -all and nvartifact emit — must be byte-identical with the cache enabled
// (default) and disabled (NVSIM_NOPLANCACHE=1), at every pool width the
// -parallel flags expose. Every run starts from an empty cell memo and builds
// its Worlds after t.Setenv takes effect, so the env var cleanly selects the
// mode per run.
func TestPlanCacheOutputIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix x4")
	}
	for _, width := range []int{1, 4, 8} {
		t.Setenv(hyper.NoPlanCacheEnv, "")
		cached, cachedCells := runFresh(t, width, func() (string, error) { return renderMatrix(t), nil })
		t.Setenv(hyper.NoPlanCacheEnv, "1")
		live, liveCells := runFresh(t, width, func() (string, error) { return renderMatrix(t), nil })
		if cachedCells == 0 || liveCells == 0 {
			t.Errorf("width %d: computed %d cached and %d live cells; a memo hit would make the comparison vacuous", width, cachedCells, liveCells)
		}
		if cached != live {
			t.Errorf("width %d: plan-cache output diverges from live recursion:\n--- cached ---\n%s\n--- live ---\n%s",
				width, cached, live)
		}
	}
}
