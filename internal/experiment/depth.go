package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// DepthRow holds one microbenchmark's cost across virtualization depths,
// with and without DVH.
type DepthRow struct {
	Micro string
	// Forwarded[d-1] is the cost at depth d without DVH; DVH[d-1] with full
	// DVH (depth 1 has no DVH variant; the plain cost is repeated).
	Forwarded []sim.Cycles
	DVH       []sim.Cycles
}

// DepthSweep extends Table 3 beyond the paper: microbenchmark cost from
// depth 1 to maxDepth (the paper stops at 3 because KVM does; the simulator
// extends the recursion). Without DVH every level multiplies cost ~24x;
// with DVH the cost is flat in depth — the strongest form of the paper's
// claim.
func DepthSweep(maxDepth int) ([]DepthRow, error) {
	if maxDepth < 1 || maxDepth > MaxDepth {
		return nil, fmt.Errorf("experiment: depth sweep supports 1..%d, got %d", MaxDepth, maxDepth)
	}
	// Two columns per depth, forwarded then DVH. Depth 1 has no DVH
	// variant; its DVH column repeats the plain cell.
	var configs []appConfig
	for depth := 1; depth <= maxDepth; depth++ {
		fwd := appConfig{fmt.Sprintf("L%d VM", depth), Spec{Depth: depth, IO: IOParavirt}}
		dvh := appConfig{fmt.Sprintf("L%d+DVH", depth), Spec{Depth: depth, IO: IODVH}}
		if depth < 2 {
			dvh = fwd
		}
		configs = append(configs, fwd, dvh)
	}
	micros := workload.Micros()
	recs, err := cellsOf(configs, micros, record)
	if err != nil {
		return nil, err
	}
	rows := make([]DepthRow, len(micros))
	for mi, m := range micros {
		rows[mi].Micro = m.String()
		for c := 0; c < len(configs); c += 2 {
			rows[mi].Forwarded = append(rows[mi].Forwarded, recs[c*len(micros)+mi].avg)
			rows[mi].DVH = append(rows[mi].DVH, recs[(c+1)*len(micros)+mi].avg)
		}
	}
	return rows, nil
}

// FormatDepthSweep renders the sweep as two blocks of per-depth columns.
func FormatDepthSweep(rows []DepthRow) string {
	if len(rows) == 0 {
		return "(no data)\n"
	}
	depths := len(rows[0].Forwarded)
	var b strings.Builder
	b.WriteString("Microbenchmark cycles by virtualization depth (forwarded | DVH)\n")
	fmt.Fprintf(&b, "%-14s", "")
	for d := 1; d <= depths; d++ {
		fmt.Fprintf(&b, " %24s", fmt.Sprintf("L%d", d))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Micro)
		for d := 0; d < depths; d++ {
			fmt.Fprintf(&b, " %24s", fmt.Sprintf("%v | %v", r.Forwarded[d], r.DVH[d]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// markdownDepthSweep renders a depth-4 sweep as a Markdown table, the
// forwarded and DVH costs side by side from L2 on.
func markdownDepthSweep(rows []DepthRow) string {
	var b strings.Builder
	b.WriteString("| Benchmark | L1 | L2 (fwd/DVH) | L3 (fwd/DVH) | L4 (fwd/DVH) |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %v | %v / %v | %v / %v | %v / %v |\n",
			r.Micro, r.Forwarded[0], r.Forwarded[1], r.DVH[1], r.Forwarded[2], r.DVH[2], r.Forwarded[3], r.DVH[3])
	}
	return b.String()
}
