package experiment

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// stormEvents sizes a delivery-storm run. Costs are deterministic, so the
// average converges as soon as every event shape has fired; a multiple of
// the storms' idle periods (4 and 2) keeps the wake/no-wake mix exact.
const stormEvents = 64

// DeliveryStorms measures the timer-storm and ipi-flood microworkloads on
// the Table 3 configurations, in average cycles per delivered event — the
// end-to-end view of what the delivery paths (injection, cascade, wake) cost
// at each depth and how much of it DVH removes.
func DeliveryStorms() ([]Table3Row, error) {
	return table3Matrix(workload.Storms(), func(st *Stack, s workload.Storm) (sim.Cycles, error) {
		return workload.RunStorm(st.World, st.Target.VCPUs[0], s, stormEvents)
	})
}

// FormatStorms renders the storm matrix in Table 3's column layout.
func FormatStorms(rows []Table3Row) string {
	return "Delivery storms (cycles per delivered event)\n" + FormatTable3(rows)
}

// markdownStorms renders the storm matrix as a Markdown table.
func markdownStorms(rows []Table3Row) string {
	return markdownTable3Layout("Storm", rows) +
		"\nAverage cycles per delivered interrupt under storm traffic: timer ticks with periodic wake-ups, and reschedule IPIs to a halted sibling.\n"
}
