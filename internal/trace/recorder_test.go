package trace

import (
	"strings"
	"testing"

	"repro/internal/vmx"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(vmx.ExitHLT, 2, 1) // must not panic
	if r.Len() != 0 {
		t.Fatal("nil recorder has events")
	}
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
}

func TestRecorderOrdering(t *testing.T) {
	r := NewRecorder(16)
	r.Record(vmx.ExitVMCALL, 2, 1)
	r.Record(vmx.ExitVMREAD, 1, 0)
	r.Record(vmx.ExitVMRESUME, 1, 0)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events", len(evs))
	}
	if evs[0].Reason != vmx.ExitVMCALL || evs[2].Reason != vmx.ExitVMRESUME {
		t.Fatalf("events out of order: %+v", evs)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("sequence numbers wrong: %+v", evs)
		}
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(vmx.ExitHLT, i, 0)
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d", r.Len())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want capacity 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("ring retained wrong window: %+v", evs)
	}
}

func TestTimelineRendering(t *testing.T) {
	r := NewRecorder(8)
	if !strings.Contains(r.Timeline(), "no exits") {
		t.Fatal("empty timeline should say so")
	}
	r.Record(vmx.ExitVMCALL, 2, 1)
	r.Record(vmx.ExitVMREAD, 1, 0)
	out := r.Timeline()
	if !strings.Contains(out, "VMCALL") || !strings.Contains(out, "from L2 -> handled by L1") {
		t.Fatalf("timeline:\n%s", out)
	}
	if !strings.Contains(out, "from L1 -> handled by L0") {
		t.Fatalf("timeline:\n%s", out)
	}
}

// TestRecorderClampsLevels is the regression test for the Timeline panic:
// Record used to store negative from/handler levels verbatim, and Timeline's
// indentation (strings.Repeat of the handler level) panicked on them. Levels
// now clamp with Stats' rules: negative to 0, >= MaxLevels to MaxLevels-1.
func TestRecorderClampsLevels(t *testing.T) {
	r := NewRecorder(8)
	r.Record(vmx.ExitHLT, -3, -1)
	r.Record(vmx.ExitVMCALL, MaxLevels+5, MaxLevels)
	evs := r.Events()
	if evs[0].FromLevel != 0 || evs[0].HandlerLevel != 0 {
		t.Fatalf("negative levels not clamped to 0: %+v", evs[0])
	}
	if evs[1].FromLevel != MaxLevels-1 || evs[1].HandlerLevel != MaxLevels-1 {
		t.Fatalf("overflowing levels not clamped to %d: %+v", MaxLevels-1, evs[1])
	}
	out := r.Timeline() // must not panic
	if !strings.Contains(out, "from L0 -> handled by L0") {
		t.Fatalf("timeline:\n%s", out)
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 2000; i++ {
		r.Record(vmx.ExitHLT, 1, 0)
	}
	if len(r.Events()) != 1024 {
		t.Fatalf("default capacity retained %d", len(r.Events()))
	}
}
