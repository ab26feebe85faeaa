package trace

import (
	"strings"
	"testing"

	"repro/internal/vmx"
)

func TestRecordAndTotals(t *testing.T) {
	var s Stats
	s.RecordHandledExit(vmx.ExitHLT, 0)
	s.AddHandledExits(vmx.ExitHLT, 0, 1)
	s.RecordHandledExit(vmx.ExitVMCALL, 1)
	if got := s.TotalHardwareExits(); got != 3 {
		t.Fatalf("TotalHardwareExits = %d, want 3", got)
	}
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
		t.Fatal("counter never incremented should read zero")
	}
	for range 3 {
		s.Inc(VirtioKicks)
	}
	s.Inc(IdleBlocks)
	if s.Counter("virtio.kicks") != 3 || s.Counter("idle.blocks") != 1 {
		t.Fatal("counter arithmetic wrong")
	}
	if s.Counter("no.such.counter") != 0 {
		t.Fatal("unknown counter name should read zero")
	}
	// A counter never incremented is not printed.
	out := s.String()
	if !strings.Contains(out, "  idle.blocks=1\n") || !strings.Contains(out, "  virtio.kicks=3\n") {
		t.Fatalf("incremented counters not printed:\n%s", out)
	}
	if strings.Contains(out, "sched.switches") {
		t.Fatalf("counter never incremented printed:\n%s", out)
	}
}

// TestCounterNames pins the enum's print order: names are distinct and
// strictly ascending, so declaration order is the sorted order String
// prints in, and a Stats with every counter nonzero renders
// exactly as it did when counters were a name-keyed map sorted on output.
func TestCounterNames(t *testing.T) {
	for c := Counter(1); c < NumCounters; c++ {
		if prev := c - 1; prev.String() >= c.String() {
			t.Errorf("counter %d %q not after %d %q", c, c, prev, prev)
		}
	}
	var s Stats
	s.RecordHandledExit(vmx.ExitVMCALL, 1)
	s.ChargeLevel(0, 1500)
	s.ChargeGuest(2500)
	// Increment in reverse order: the output order must not depend on it.
	for i := int(NumCounters) - 1; i >= 0; i-- {
		for range int(NumCounters) - i {
			s.Inc(Counter(i))
		}
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
	for c := range NumCounters {
		if got := s.Counter(c.String()); got != uint64(NumCounters-c) {
			t.Errorf("Counter(%q) = %d, want %d", c, got, NumCounters-c)
		}
	}
}

func TestReset(t *testing.T) {
	var s Stats
	s.RecordHandledExit(vmx.ExitHLT, 0)
	s.Inc(IRQDelivered)
	s.ChargeGuest(5)
	s.Reset()
	if s.TotalHardwareExits() != 0 || s.Counter("irq.delivered") != 0 || s.TotalCycles() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestStringReport(t *testing.T) {
	var s Stats
	s.RecordHandledExit(vmx.ExitVMCALL, 1)
	s.RecordHandledExit(vmx.ExitVMCALL, 2)
	s.ChargeLevel(0, 1500)
	for range 3 {
		s.Inc(VirtioKicks)
	}
	out := s.String()
	for _, want := range []string{"VMCALL               hw=2        L1=1 L2=1\n", "virtio.kicks=3", "hardware exits: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
