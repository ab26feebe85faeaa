// Package workload models the paper's benchmarks at the transaction level:
// the four microbenchmarks of Table 1 and the seven application workloads of
// Table 2. An application profile is its per-transaction *hardware access
// mix* — doorbell kicks, receive batches, timer programs, IPIs, idle
// transitions, EOIs — plus the guest compute work per transaction calibrated
// from the paper's native results. The virtualization overhead of a
// configuration is then an output: the same mix priced through the
// configuration's exit paths.
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Profile is one application workload's transaction model.
type Profile struct {
	// Name matches the paper's workload naming.
	Name string
	// Unit is the metric unit ("trans/s", "Mb/s", "s").
	Unit string
	// NativeScore is the paper's reported native result in Unit.
	NativeScore float64
	// HigherIsBetter distinguishes rates from elapsed times.
	HigherIsBetter bool
	// Cores is how many vCPUs the workload keeps busy (the VM has 4).
	Cores int

	// WorkCycles is guest compute per transaction (per core driving it).
	WorkCycles sim.Cycles

	// Per-transaction hardware-access rates. Fractional values model
	// batching and amortization; the runner carries remainders so long runs
	// converge to the exact rate.
	TxKicks   float64 // virtio doorbell writes (DevNotify)
	RxBatches float64 // inbound data arrivals (DeviceRX)
	Timers    float64 // LAPIC TSC-deadline programs
	IPIs      float64 // inter-processor interrupts sent
	Idles     float64 // HLT + wake pairs
	EOIs      float64 // end-of-interrupt writes
	BlkOps    float64 // virtio-blk request kicks (with completion IRQ)
}

// Profiles returns the seven application workloads of Table 2 in the
// paper's presentation order. Native scores are from Section 4; access
// mixes are calibrated so the overhead ratios of Figure 7 emerge from the
// simulator's exit-cost model.
func Profiles() []Profile {
	return []Profile{
		{
			// Request-response: latency bound, one in-flight transaction;
			// the VM idles between requests and re-arms its timer constantly.
			Name: "Netperf RR", Unit: "trans/s", NativeScore: 45578, HigherIsBetter: true,
			Cores: 1, WorkCycles: 26000,
			TxKicks: 1.0, RxBatches: 1.0, Timers: 0.5, Idles: 0.7, EOIs: 2.0,
		},
		{
			// Bulk transmit: large sends, kicks amortized by the ring.
			Name: "Netperf STREAM", Unit: "Mb/s", NativeScore: 9413, HigherIsBetter: true,
			Cores: 1, WorkCycles: 110000,
			TxKicks: 0.5, RxBatches: 0.15, Timers: 0.1, Idles: 0.05, EOIs: 0.6,
		},
		{
			// Bulk receive: interrupt and RX-refill heavy.
			Name: "Netperf MAERTS", Unit: "Mb/s", NativeScore: 9414, HigherIsBetter: true,
			Cores: 1, WorkCycles: 110000,
			TxKicks: 1.2, RxBatches: 3.0, Timers: 0.1, Idles: 0.05, EOIs: 3.0,
		},
		{
			// 41 KB file served to 10 concurrent clients: many frames per
			// request plus worker hand-off IPIs.
			Name: "Apache", Unit: "trans/s", NativeScore: 15469, HigherIsBetter: true,
			Cores: 4, WorkCycles: 290000,
			TxKicks: 6.5, RxBatches: 5.5, Timers: 1.2, IPIs: 2.5, Idles: 1.0, EOIs: 9.0,
		},
		{
			// Small in-memory requests: tiny per-transaction work makes every
			// exit count.
			Name: "Memcached", Unit: "trans/s", NativeScore: 354132, HigherIsBetter: true,
			Cores: 4, WorkCycles: 24800,
			TxKicks: 1.0, RxBatches: 1.0, Timers: 0.2, IPIs: 0.3, Idles: 0.2, EOIs: 2.0,
		},
		{
			// OLTP with 200 parallel transactions: block I/O, scheduler IPIs,
			// timer-heavy locking.
			Name: "MySQL", Unit: "s", NativeScore: 4.45, HigherIsBetter: false,
			Cores: 4, WorkCycles: 200000,
			TxKicks: 0.6, RxBatches: 0.6, BlkOps: 0.4, Timers: 0.8, IPIs: 1.0, Idles: 0.8, EOIs: 3.0,
		},
		{
			// Pure IPC: no device I/O at all; overhead comes from reschedule
			// IPIs, idle transitions and timers (why Figure 7's Hackbench
			// bars are flat across I/O models).
			Name: "Hackbench", Unit: "s", NativeScore: 10.36, HigherIsBetter: false,
			Cores: 4, WorkCycles: 150000,
			Timers: 0.5, IPIs: 2.0, Idles: 0.8, EOIs: 2.5,
		},
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Micro identifies a Table 1 microbenchmark.
type Micro int

const (
	// MicroHypercall: null transition to the VM's own hypervisor and back.
	MicroHypercall Micro = iota
	// MicroDevNotify: virtio doorbell MMIO write.
	MicroDevNotify
	// MicroProgramTimer: LAPIC TSC-deadline program.
	MicroProgramTimer
	// MicroSendIPI: IPI to an idle sibling vCPU.
	MicroSendIPI
)

// Micros lists the Table 1 microbenchmarks in presentation order.
func Micros() []Micro {
	return []Micro{MicroHypercall, MicroDevNotify, MicroProgramTimer, MicroSendIPI}
}

func (m Micro) String() string {
	switch m {
	case MicroHypercall:
		return "Hypercall"
	case MicroDevNotify:
		return "DevNotify"
	case MicroProgramTimer:
		return "ProgramTimer"
	case MicroSendIPI:
		return "SendIPI"
	}
	return fmt.Sprintf("Micro(%d)", int(m))
}
