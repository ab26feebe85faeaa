package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vmx"
)

func TestRecordAndTotals(t *testing.T) {
	var s Stats
	s.RecordHardwareExit(vmx.ExitHLT)
	s.RecordHardwareExit(vmx.ExitHLT)
	s.RecordHardwareExit(vmx.ExitVMCALL)
	if got := s.TotalHardwareExits(); got != 3 {
		t.Fatalf("TotalHardwareExits = %d, want 3", got)
	}
	s.RecordHandledExit(vmx.ExitVMCALL, 1)
	s.RecordHandledExit(vmx.ExitHLT, 0)
	if got := s.TotalHandledAt(1); got != 1 {
		t.Fatalf("TotalHandledAt(1) = %d, want 1", got)
	}
	if got := s.GuestHypervisorExits(); got != 1 {
		t.Fatalf("GuestHypervisorExits = %d, want 1", got)
	}
}

func TestLevelClamping(t *testing.T) {
	var s Stats
	s.RecordHandledExit(vmx.ExitHLT, -3)
	s.RecordHandledExit(vmx.ExitHLT, MaxLevels+10)
	if s.HandledExits[vmx.ExitHLT.Index()][0] != 1 {
		t.Fatal("negative level not clamped to 0")
	}
	if s.HandledExits[vmx.ExitHLT.Index()][MaxLevels-1] != 1 {
		t.Fatal("overflow level not clamped")
	}
	s.ChargeLevel(-1, 10)
	s.ChargeLevel(MaxLevels, 20)
	if s.LevelCycles[0] != 10 || s.LevelCycles[MaxLevels-1] != 20 {
		t.Fatal("cycle charge clamping failed")
	}
}

func TestCycleAttribution(t *testing.T) {
	var s Stats
	s.ChargeLevel(0, 1000)
	s.ChargeLevel(1, 500)
	s.ChargeGuest(250)
	if s.TotalCycles() != 1750 {
		t.Fatalf("TotalCycles = %d, want 1750", s.TotalCycles())
	}
}

func TestCounters(t *testing.T) {
	var s Stats
	if s.Counter("virtio.kicks") != 0 {
		t.Fatal("untouched counter should read zero")
	}
	s.Inc(VirtioKicks, 2)
	s.Inc(IdleBlocks, 7)
	s.Inc(VirtioKicks, 1)
	if s.Counter("virtio.kicks") != 3 || s.Counter("idle.blocks") != 7 {
		t.Fatal("counter arithmetic wrong")
	}
	if s.Counter("no.such.counter") != 0 {
		t.Fatal("unknown counter name should read zero")
	}
	names := s.CounterNames()
	if len(names) != 2 || names[0] != "idle.blocks" || names[1] != "virtio.kicks" {
		t.Fatalf("CounterNames = %v", names)
	}
	// A counter bumped by zero is touched: it is listed and printed.
	s.Inc(SchedSwitches, 0)
	if names := s.CounterNames(); len(names) != 3 || names[1] != "sched.switches" {
		t.Fatalf("CounterNames after a zero bump = %v", names)
	}
	if !strings.Contains(s.String(), "  sched.switches=0\n") {
		t.Fatalf("zero-bumped counter not printed:\n%s", s.String())
	}
}

// TestCounterNames pins the enum's print order: names are distinct and
// strictly ascending, so declaration order is the sorted order String and
// CounterNames print in, and a Stats with every counter touched renders
// exactly as it did when counters were a name-keyed map sorted on output.
func TestCounterNames(t *testing.T) {
	for c := Counter(1); c < NumCounters; c++ {
		if prev := c - 1; prev.String() >= c.String() {
			t.Errorf("counter %d %q not after %d %q", c, c, prev, prev)
		}
	}
	var s Stats
	s.RecordHardwareExit(vmx.ExitVMCALL)
	s.RecordHandledExit(vmx.ExitVMCALL, 1)
	s.ChargeLevel(0, 1500)
	s.ChargeGuest(2500)
	// Touch in reverse order: the output order must not depend on it.
	for i := int(NumCounters) - 1; i >= 0; i-- {
		s.Inc(Counter(i), uint64(int(NumCounters)-i))
	}
	const want = "hardware exits: 1\n" +
		"  VMCALL               hw=1        L1=1\n" +
		"cycles: guest=2,500 L0=1,500\n" +
		"  dvh.vipi.sends=12\n" +
		"  dvh.vp.kicks=11\n" +
		"  dvh.vtimer.direct_deliveries=10\n" +
		"  dvh.vtimer.programs=9\n" +
		"  hyperv.enlightened_hypercalls=8\n" +
		"  idle.blocks=7\n" +
		"  idle.wakes=6\n" +
		"  irq.delivered=5\n" +
		"  passthrough.kicks=4\n" +
		"  sched.switches=3\n" +
		"  virtio.kicks=2\n" +
		"  xen.evtchn_ipis=1\n"
	if got := s.String(); got != want {
		t.Fatalf("String() =\n%s\nwant\n%s", got, want)
	}
	if names := s.CounterNames(); len(names) != int(NumCounters) {
		t.Fatalf("CounterNames = %v, want all %d counters", names, NumCounters)
	}
	for c := range NumCounters {
		if got := s.Counter(c.String()); got != uint64(NumCounters-c) {
			t.Errorf("Counter(%q) = %d, want %d", c, got, NumCounters-c)
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b Stats
	a.RecordHardwareExit(vmx.ExitHLT)
	a.Inc(IRQDelivered, 1)
	a.ChargeGuest(10)
	b.RecordHardwareExit(vmx.ExitHLT)
	b.RecordHandledExit(vmx.ExitVMCALL, 2)
	b.Inc(IRQDelivered, 4)
	b.Inc(IdleWakes, 0)
	b.ChargeLevel(2, 30)
	a.Merge(&b)
	if a.TotalHardwareExits() != 2 {
		t.Fatal("hardware exits did not merge")
	}
	if a.TotalHandledAt(2) != 1 {
		t.Fatal("handled exits did not merge")
	}
	if a.Counter("irq.delivered") != 5 {
		t.Fatal("counters did not merge")
	}
	if names := a.CounterNames(); len(names) != 2 || names[0] != "idle.wakes" || names[1] != "irq.delivered" {
		t.Fatalf("merged CounterNames = %v, want the touched counters of both", names)
	}
	if a.TotalCycles() != 40 {
		t.Fatalf("TotalCycles after merge = %d, want 40", a.TotalCycles())
	}
}

func TestReset(t *testing.T) {
	var s Stats
	s.RecordHardwareExit(vmx.ExitHLT)
	s.Inc(IRQDelivered, 1)
	s.ChargeGuest(5)
	s.Reset()
	if s.TotalHardwareExits() != 0 || s.Counter("irq.delivered") != 0 || len(s.CounterNames()) != 0 || s.TotalCycles() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestStringReport(t *testing.T) {
	var s Stats
	s.RecordHardwareExit(vmx.ExitVMCALL)
	s.RecordHandledExit(vmx.ExitVMCALL, 1)
	s.ChargeLevel(0, 1500)
	s.Inc(VirtioKicks, 3)
	out := s.String()
	for _, want := range []string{"VMCALL", "L1=1", "virtio.kicks=3", "hardware exits: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestMergePreservesTotalsProperty(t *testing.T) {
	f := func(n1, n2 uint8) bool {
		var a, b Stats
		for i := uint8(0); i < n1; i++ {
			a.RecordHardwareExit(vmx.ExitHLT)
		}
		for i := uint8(0); i < n2; i++ {
			b.RecordHardwareExit(vmx.ExitEPTViolation)
		}
		a.Merge(&b)
		return a.TotalHardwareExits() == uint64(n1)+uint64(n2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
