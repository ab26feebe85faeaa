package migrate

import (
	"bytes"
	"testing"

	"repro/internal/apic"
	"repro/internal/core"
	"repro/internal/hyper"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	r := buildRig(t, 0)
	gm := r.l2.Memory()
	addr := r.l2.MustAllocPages(3)
	payload := bytes.Repeat([]byte("suspend/resume"), 600)
	if err := gm.Write(addr, payload); err != nil {
		t.Fatal(err)
	}

	blob, err := Snapshot(r.l2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < len(payload) {
		t.Fatalf("snapshot only %d bytes", len(blob))
	}
	if err := RestoreSnapshot(r.dst, nil, blob); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := r.dst.Memory().Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("restored content differs")
	}
}

func TestSnapshotCarriesDVHState(t *testing.T) {
	r := buildRig(t, core.FeaturesAll)
	if err := r.dvh.ConfigureVM(r.l2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.w.Execute(r.l2.VCPUs[0], hyper.ProgramTimer(5_000_000)); err != nil {
		t.Fatal(err)
	}
	blob, err := Snapshot(r.l2, r.dvh)
	if err != nil {
		t.Fatal(err)
	}

	// Resume on a fresh DVH-enabled destination stack.
	r2 := buildRig(t, core.FeaturesAll)
	if err := r2.dvh.ConfigureVM(r2.l2); err != nil {
		t.Fatal(err)
	}
	if err := RestoreSnapshot(r2.l2, r2.dvh, blob); err != nil {
		t.Fatal(err)
	}
	if r2.l2.VCPUs[0].LAPIC.TSCDeadline() == 0 {
		t.Fatal("resumed VM lost its armed virtual timer")
	}
	r2.w.RunUntil(6_000_000)
	if !r2.l2.VCPUs[0].LAPIC.Pending(apic.VectorTimer) {
		t.Fatal("resumed timer never fired")
	}
}

func TestSnapshotRejectsPassthroughAndGarbage(t *testing.T) {
	r := buildRig(t, 0)
	if err := RestoreSnapshot(r.l2, nil, []byte("definitely not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	blob, err := Snapshot(r.l2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated snapshot must fail cleanly.
	if err := RestoreSnapshot(r.dst, nil, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// Snapshot into a smaller VM must fail.
	gh := r.l1.GuestHyp
	tiny, err := gh.CreateVM(hyper.VMConfig{Name: "tiny", VCPUs: 1, MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreSnapshot(tiny, nil, blob); err == nil {
		t.Fatal("oversized snapshot accepted by tiny VM")
	}
	if _, err := Snapshot(nil, nil); err == nil {
		t.Fatal("nil VM accepted")
	}
}
