// Package trace provides the accounting layer for the simulator: per-reason
// and per-level exit counters, cycle attribution, and named counters. Every
// hypervisor, device and DVH mechanism reports into a Stats sink so
// experiments can show not only how long an operation took but *why* — how
// many exits it produced, which hypervisor level handled them, and where the
// cycles went. The exit-multiplication story of the paper's Figure 1 is read
// directly off these tables.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/vmx"
)

// MaxLevels bounds the hypervisor nesting depth the accounting tables size
// for: L0 through L4 handlers (the paper evaluates up to L3 VMs; one level of
// headroom keeps recursive-DVH experiments honest).
const MaxLevels = 6

// Stats accumulates simulation accounting. The zero value is ready to use.
// Stats is not safe for concurrent use; the simulation kernel is
// single-threaded by design.
type Stats struct {
	// HardwareExits counts exits taken by the physical CPU (always to L0),
	// indexed by exit reason.
	HardwareExits [vmx.NumReasonIndexes]uint64
	// HandledExits counts logical exits by (reason, handler level): a nested
	// VM exit forwarded to its guest hypervisor counts once at that level,
	// and the hardware exits the forwarding itself produces count in
	// HardwareExits.
	HandledExits [vmx.NumReasonIndexes][MaxLevels]uint64
	// LevelCycles attributes simulated cycles to the hypervisor level that
	// consumed them (index 0 = host hypervisor; MaxLevels-1 aggregates guest
	// work).
	LevelCycles [MaxLevels]sim.Cycles
	// GuestCycles counts cycles spent doing the VM's own (useful) work.
	GuestCycles sim.Cycles

	counters map[string]uint64
}

// RecordHardwareExit notes one physical VM exit to the host hypervisor.
func (s *Stats) RecordHardwareExit(r vmx.ExitReason) {
	s.HardwareExits[r.Index()]++
}

// AddHardwareExits notes n physical VM exits with the same reason — the bulk
// form RecordHardwareExit aggregates to when a compiled forward plan is
// replayed. Calling it is arithmetically identical to n RecordHardwareExit
// calls (counter addition commutes), which is what keeps replayed runs
// byte-identical to recomputed ones.
func (s *Stats) AddHardwareExits(r vmx.ExitReason, n uint64) {
	s.HardwareExits[r.Index()] += n
}

// RecordHandledExit notes that a logical exit with the given reason was
// handled by the hypervisor at the given level.
func (s *Stats) RecordHandledExit(r vmx.ExitReason, level int) {
	s.HandledExits[r.Index()][ClampLevel(level)]++
}

// AddHandledExits notes n logical exits with the same (reason, handler
// level) — the bulk companion of AddHardwareExits, with the same clamping as
// RecordHandledExit.
func (s *Stats) AddHandledExits(r vmx.ExitReason, level int, n uint64) {
	s.HandledExits[r.Index()][ClampLevel(level)] += n
}

// ChargeLevel attributes cycles to a hypervisor level.
func (s *Stats) ChargeLevel(level int, c sim.Cycles) {
	s.LevelCycles[ClampLevel(level)] += c
}

// ChargeGuest attributes cycles to useful guest work.
func (s *Stats) ChargeGuest(c sim.Cycles) { s.GuestCycles += c }

// Inc bumps a named counter (device kicks, pages dirtied, pre-copy rounds…).
func (s *Stats) Inc(name string, delta uint64) {
	if s.counters == nil {
		//nvlint:ignore hotalloc lazy one-time map init; every later bump reuses it
		s.counters = make(map[string]uint64)
	}
	s.counters[name] += delta
}

// Counter returns a named counter's value (zero when never incremented).
func (s *Stats) Counter(name string) uint64 { return s.counters[name] }

// CounterNames returns the sorted names of all touched counters.
func (s *Stats) CounterNames() []string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalHardwareExits sums physical exits across all reasons.
func (s *Stats) TotalHardwareExits() uint64 {
	var t uint64
	for _, v := range s.HardwareExits {
		t += v
	}
	return t
}

// TotalHandledAt sums logical exits handled by the given level.
func (s *Stats) TotalHandledAt(level int) uint64 {
	if level < 0 || level >= MaxLevels {
		return 0
	}
	var t uint64
	for i := range s.HandledExits {
		t += s.HandledExits[i][level]
	}
	return t
}

// TotalHandledExits sums logical exits over every reason and handler level.
// Because every hardware exit is handled by exactly one level, this equals
// TotalHardwareExits on a consistent Stats — the conservation law the
// invariant checker (internal/check) enforces.
func (s *Stats) TotalHandledExits() uint64 {
	var t uint64
	for l := 0; l < MaxLevels; l++ {
		t += s.TotalHandledAt(l)
	}
	return t
}

// GuestHypervisorExits sums logical exits handled by any guest hypervisor
// (level >= 1) — the quantity DVH exists to eliminate.
func (s *Stats) GuestHypervisorExits() uint64 {
	var t uint64
	for l := 1; l < MaxLevels; l++ {
		t += s.TotalHandledAt(l)
	}
	return t
}

// TotalCycles sums all attributed cycles, hypervisor and guest.
func (s *Stats) TotalCycles() sim.Cycles {
	t := s.GuestCycles
	for _, c := range s.LevelCycles {
		t += c
	}
	return t
}

// Reset zeroes all accounting.
func (s *Stats) Reset() { *s = Stats{} }

// Merge adds other's counts into s.
func (s *Stats) Merge(other *Stats) {
	for i := range s.HardwareExits {
		s.HardwareExits[i] += other.HardwareExits[i]
		for l := range s.HandledExits[i] {
			s.HandledExits[i][l] += other.HandledExits[i][l]
		}
	}
	for l := range s.LevelCycles {
		s.LevelCycles[l] += other.LevelCycles[l]
	}
	s.GuestCycles += other.GuestCycles
	// Iterate the sorted names so merged state is built identically on every
	// run (counter addition commutes, but map allocation order would not).
	for _, n := range other.CounterNames() {
		s.Inc(n, other.counters[n])
	}
}

// String renders a human-readable report: exits by reason and handler level,
// then cycle attribution, then named counters.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hardware exits: %d\n", s.TotalHardwareExits())
	for _, r := range vmx.AllReasons() {
		hw := s.HardwareExits[r.Index()]
		var handled [MaxLevels]uint64
		any := hw > 0
		for l := 0; l < MaxLevels; l++ {
			handled[l] = s.HandledExits[r.Index()][l]
			any = any || handled[l] > 0
		}
		if !any {
			continue
		}
		fmt.Fprintf(&b, "  %-20s hw=%-8d", r, hw)
		for l := 0; l < MaxLevels; l++ {
			if handled[l] > 0 {
				fmt.Fprintf(&b, " L%d=%d", l, handled[l])
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "cycles: guest=%v", s.GuestCycles)
	for l := 0; l < MaxLevels; l++ {
		if s.LevelCycles[l] > 0 {
			fmt.Fprintf(&b, " L%d=%v", l, s.LevelCycles[l])
		}
	}
	b.WriteByte('\n')
	for _, n := range s.CounterNames() {
		fmt.Fprintf(&b, "  %s=%d\n", n, s.counters[n])
	}
	return b.String()
}
