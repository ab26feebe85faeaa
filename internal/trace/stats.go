// Package trace provides the accounting layer for the simulator: exits by
// reason and handler level, cycle attribution, and named counters. Every
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

// Stats accumulates simulation accounting. It is the one record of a
// simulated cycle and of a simulated exit: every charge lands here once, at
// the level that spent it, and an engine boundary's cost is the change in
// TotalCycles across it; every exit is counted once, at the level that
// handled it. The zero value is ready to use. Stats is not safe for
// concurrent use; the simulation kernel is single-threaded by design.
type Stats struct {
	// HandledExits counts exits by (reason, handler level). Each exit the
	// physical CPU takes is handled by exactly one level — the host, or the
	// guest hypervisor a nested VM's exit is forwarded to — so this one
	// table is also the hardware-exit record: TotalHardwareExits sums it.
	// The privileged instructions a forwarded exit's handler runs are exits
	// of their own, each counted at the level below it.
	HandledExits [vmx.NumReasonIndexes][MaxLevels]uint64
	// LevelCycles attributes simulated cycles to the hypervisor level that
	// consumed them (index 0 = host hypervisor; MaxLevels-1 aggregates guest
	// work).
	LevelCycles [MaxLevels]sim.Cycles
	// GuestCycles counts cycles spent doing the VM's own (useful) work.
	GuestCycles sim.Cycles

	// total is GuestCycles plus every LevelCycles entry, kept as the charges
	// land so that TotalCycles, read at every boundary, is one field read.
	total sim.Cycles

	counters [NumCounters]uint64
}

// Counter names one of the engine's event counters: device kicks, idle
// transitions, interrupt deliveries, DVH and enlightenment fast paths.
// Counters are declared in ascending order of their printed names, so
// declaration order is sorted order: String walks the enum and prints
// exactly as a name-keyed map sorted on every read did.
type Counter uint8

const (
	DVHVIPISends Counter = iota
	DVHVPKicks
	DVHVTimerDirectDeliveries
	DVHVTimerPrograms
	HyperVEnlightenedHypercalls
	IdleBlocks
	IdleWakes
	IRQDelivered
	PassthroughKicks
	SchedSwitches
	VirtioKicks
	XenEvtchnIPIs
	// NumCounters is the number of counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	DVHVIPISends:                "dvh.vipi.sends",
	DVHVPKicks:                  "dvh.vp.kicks",
	DVHVTimerDirectDeliveries:   "dvh.vtimer.direct_deliveries",
	DVHVTimerPrograms:           "dvh.vtimer.programs",
	HyperVEnlightenedHypercalls: "hyperv.enlightened_hypercalls",
	IdleBlocks:                  "idle.blocks",
	IdleWakes:                   "idle.wakes",
	IRQDelivered:                "irq.delivered",
	PassthroughKicks:            "passthrough.kicks",
	SchedSwitches:               "sched.switches",
	VirtioKicks:                 "virtio.kicks",
	XenEvtchnIPIs:               "xen.evtchn_ipis",
}

// String returns the counter's printed name.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", uint8(c))
}

// RecordHandledExit notes that an exit with the given reason was handled by
// the hypervisor at the given level.
func (s *Stats) RecordHandledExit(r vmx.ExitReason, level int) {
	s.HandledExits[r.Index()][ClampLevel(level)]++
}

// AddHandledExits notes n exits with the same (reason, handler level), with
// RecordHandledExit's clamping — the bulk form a replayed plan applies.
// Calling it is arithmetically identical to n RecordHandledExit calls
// (counter addition commutes), which is what keeps replayed runs
// byte-identical to recomputed ones.
func (s *Stats) AddHandledExits(r vmx.ExitReason, level int, n uint64) {
	s.HandledExits[r.Index()][ClampLevel(level)] += n
}

// ChargeLevel attributes cycles to a hypervisor level.
func (s *Stats) ChargeLevel(level int, c sim.Cycles) {
	s.LevelCycles[ClampLevel(level)] += c
	s.total += c
}

// ChargeGuest attributes cycles to useful guest work.
func (s *Stats) ChargeGuest(c sim.Cycles) {
	s.GuestCycles += c
	s.total += c
}

// Inc adds one to a counter.
func (s *Stats) Inc(c Counter) { s.counters[c]++ }

// Counter returns the value of the counter with the given printed name
// (zero when never incremented or when no counter has that name).
func (s *Stats) Counter(name string) uint64 {
	i := sort.SearchStrings(counterNames[:], name)
	if i < len(counterNames) && counterNames[i] == name {
		return s.counters[i]
	}
	return 0
}

// hardwareExits sums the exits with reason index i over every handler
// level.
func (s *Stats) hardwareExits(i int) uint64 {
	var t uint64
	for _, n := range s.HandledExits[i] {
		t += n
	}
	return t
}

// TotalHardwareExits sums exits over every reason and handler level: each
// exit the physical CPU takes is handled by exactly one level.
func (s *Stats) TotalHardwareExits() uint64 {
	var t uint64
	for i := range s.HandledExits {
		t += s.hardwareExits(i)
	}
	return t
}

// TotalHandledAt sums exits handled by the given level.
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

// GuestHypervisorExits sums exits handled by any guest hypervisor
// (level >= 1) — the quantity DVH exists to eliminate.
func (s *Stats) GuestHypervisorExits() uint64 {
	var t uint64
	for l := 1; l < MaxLevels; l++ {
		t += s.TotalHandledAt(l)
	}
	return t
}

// TotalCycles returns every cycle charged, hypervisor and guest.
func (s *Stats) TotalCycles() sim.Cycles { return s.total }

// Reset zeroes all accounting.
func (s *Stats) Reset() { *s = Stats{} }

// String renders a human-readable report: exits by reason, each reason's
// total (hw=) then its count at each handler level, then cycle attribution,
// then each nonzero counter by name.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hardware exits: %d\n", s.TotalHardwareExits())
	for _, r := range vmx.AllReasons() {
		hw := s.hardwareExits(r.Index())
		if hw == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-20s hw=%-8d", r, hw)
		for l, n := range s.HandledExits[r.Index()] {
			if n > 0 {
				fmt.Fprintf(&b, " L%d=%d", l, n)
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
	for c := range NumCounters {
		if s.counters[c] != 0 {
			fmt.Fprintf(&b, "  %s=%d\n", c, s.counters[c])
		}
	}
	return b.String()
}
