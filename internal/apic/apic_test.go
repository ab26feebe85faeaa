package apic

import (
	"testing"
	"testing/quick"
)

func TestICREncodeDecode(t *testing.T) {
	icr := EncodeICR(3, VectorReschedule)
	if icr.Dest() != 3 {
		t.Fatalf("Dest = %d, want 3", icr.Dest())
	}
	if icr.Vector() != VectorReschedule {
		t.Fatalf("Vector = %d, want %d", icr.Vector(), VectorReschedule)
	}
}

func TestICRRoundTripProperty(t *testing.T) {
	f := func(dest uint32, vec uint8) bool {
		icr := EncodeICR(dest, Vector(vec))
		return icr.Dest() == dest && icr.Vector() == Vector(vec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverAckEOI(t *testing.T) {
	l := NewLAPIC()
	if l.HasPending() {
		t.Fatal("fresh LAPIC has pending interrupts")
	}
	if !l.Deliver(VectorVirtioIRQ) {
		t.Fatal("first delivery should be new")
	}
	if l.Deliver(VectorVirtioIRQ) {
		t.Fatal("re-delivery should coalesce")
	}
	if !l.Pending(VectorVirtioIRQ) {
		t.Fatal("vector not pending")
	}
	v, ok := l.Ack()
	if !ok || v != VectorVirtioIRQ {
		t.Fatalf("Ack = %d,%v", v, ok)
	}
	if !l.InService(VectorVirtioIRQ) {
		t.Fatal("vector not in service after Ack")
	}
	if l.HasPending() {
		t.Fatal("IRR should be empty after Ack")
	}
	l.EOI()
	if l.InService(VectorVirtioIRQ) {
		t.Fatal("vector still in service after EOI")
	}
}

func TestAckPriorityOrder(t *testing.T) {
	l := NewLAPIC()
	l.Deliver(VectorVirtioIRQ)  // 41
	l.Deliver(VectorReschedule) // 253
	l.Deliver(VectorTimer)      // 236
	want := []Vector{VectorReschedule, VectorTimer, VectorVirtioIRQ}
	for _, w := range want {
		v, ok := l.Ack()
		if !ok || v != w {
			t.Fatalf("Ack = %d, want %d", v, w)
		}
		// While w is in service, PPR masks its own class and below; the OS
		// completes the handler before the next lower-priority interrupt.
		l.EOI()
	}
	if _, ok := l.Ack(); ok {
		t.Fatal("Ack on empty IRR should fail")
	}
}

func TestInServiceMasksUntilEOI(t *testing.T) {
	// SDM Vol.3 10.8.3.1: PPR = max(TPR class, highest ISR class). With a
	// vector in service, same-or-lower-class vectors stay held in the IRR
	// until EOI — the regression the old TPR-only Ack allowed through.
	l := NewLAPIC()
	l.Deliver(VectorTimer)     // 236: class 14
	l.Deliver(VectorVirtioIRQ) // 41: class 2
	v, ok := l.Ack()
	if !ok || v != VectorTimer {
		t.Fatalf("Ack = %d,%v", v, ok)
	}
	if l.PPR() != uint8(VectorTimer)&0xf0 {
		t.Fatalf("PPR = %#x, want %#x", l.PPR(), uint8(VectorTimer)&0xf0)
	}
	if v, ok := l.Ack(); ok {
		t.Fatalf("vector %d acked while class-14 handler in service", v)
	}
	// A strictly higher class preempts (nested interrupt).
	l.Deliver(VectorReschedule) // 253: class 15
	if v, ok := l.Ack(); !ok || v != VectorReschedule {
		t.Fatalf("preempting Ack = %d,%v", v, ok)
	}
	// Unwinding both handlers releases the low-priority vector.
	l.EOI() // retires 253
	l.EOI() // retires 236
	if v, ok := l.Ack(); !ok || v != VectorVirtioIRQ {
		t.Fatalf("post-EOI Ack = %d,%v", v, ok)
	}
}

func TestVectorBoundaries(t *testing.T) {
	// Vectors 0-15 are architecturally invalid (and masked at TPR 0), so the
	// lowest boundary probed is 16.
	l := NewLAPIC()
	for _, v := range []Vector{16, 63, 64, 127, 128, 191, 192, 255} {
		if !l.Deliver(v) {
			t.Fatalf("delivery of vector %d failed", v)
		}
	}
	for i := 0; i < 8; i++ {
		if _, ok := l.Ack(); !ok {
			t.Fatalf("only acked %d of 8 boundary vectors", i)
		}
		l.EOI() // retire the handler so PPR unmasks the next class down
	}
}

func TestTimerDeadline(t *testing.T) {
	l := NewLAPIC()
	if l.FireTimer() {
		t.Fatal("disarmed timer fired")
	}
	l.SetTSCDeadline(123456)
	if l.TSCDeadline() != 123456 {
		t.Fatal("deadline not stored")
	}
	if !l.FireTimer() {
		t.Fatal("armed timer did not fire")
	}
	if l.TSCDeadline() != 0 {
		t.Fatal("deadline not disarmed after fire")
	}
	if !l.Pending(VectorTimer) {
		t.Fatal("timer interrupt not delivered")
	}
}

func TestTimerVector(t *testing.T) {
	l := NewLAPIC()
	l.SetTimerVector(99)
	if l.TimerVector() != 99 {
		t.Fatal("timer vector not stored")
	}
	l.SetTSCDeadline(1)
	if !l.FireTimer() {
		t.Fatal("armed timer did not fire")
	}
	if !l.Pending(99) {
		t.Fatal("timer fired on wrong vector")
	}
}

func TestPIDescriptorPostCoalesces(t *testing.T) {
	p := NewPIDescriptor(2)
	if p.NDst() != 2 {
		t.Fatal("NDst not stored")
	}
	if !p.Post(VectorTimer) {
		t.Fatal("first post should require a notification")
	}
	if p.Post(VectorReschedule) {
		t.Fatal("second post with outstanding notification should coalesce")
	}
	if !p.on || !p.Pending() {
		t.Fatal("descriptor state wrong after posts")
	}
}

func TestPIDescriptorSync(t *testing.T) {
	p := NewPIDescriptor(0)
	l := NewLAPIC()
	p.Post(VectorTimer)
	p.Post(VectorVirtioIRQ)
	n := p.Sync(l)
	if n != 2 {
		t.Fatalf("Sync moved %d vectors, want 2", n)
	}
	if !l.Pending(VectorTimer) || !l.Pending(VectorVirtioIRQ) {
		t.Fatal("vectors did not land in IRR")
	}
	if p.Pending() || p.on {
		t.Fatal("descriptor not drained")
	}
	if !p.Post(VectorTimer) {
		t.Fatal("post after sync should need a fresh notification")
	}
}

func TestPostSyncNeverLosesVectorsProperty(t *testing.T) {
	f := func(vecs []uint8) bool {
		p := NewPIDescriptor(0)
		l := NewLAPIC()
		uniq := map[uint8]bool{}
		for _, v := range vecs {
			p.Post(Vector(v))
			uniq[v] = true
		}
		p.Sync(l)
		for v := range uniq {
			if !l.Pending(Vector(v)) {
				return false
			}
		}
		return !p.Pending()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTPRMasksLowPriorityVectors(t *testing.T) {
	l := NewLAPIC()
	l.Deliver(VectorVirtioIRQ) // 41: priority class 2
	l.SetTPR(0x40)             // class 4: masks classes <= 4
	if _, ok := l.Ack(); ok {
		t.Fatal("TPR-masked vector acked")
	}
	// A higher-priority vector still gets through.
	l.Deliver(VectorReschedule) // 253: class 15
	v, ok := l.Ack()
	if !ok || v != VectorReschedule {
		t.Fatalf("Ack = %d,%v", v, ok)
	}
	l.EOI() // retire the class-15 handler so only TPR masks remain
	// Dropping TPR releases the held vector.
	l.SetTPR(0)
	if l.TPR() != 0 {
		t.Fatal("TPR readback wrong")
	}
	v, ok = l.Ack()
	if !ok || v != VectorVirtioIRQ {
		t.Fatalf("released Ack = %d,%v", v, ok)
	}
}

// Regression (found by FuzzLAPIC): delivering a vector that is currently in
// service must coalesce, not re-latch into the IRR — the model keeps at most
// one live instance per vector, so IRR and ISR stay disjoint.
func TestDeliverWhileInServiceCoalesces(t *testing.T) {
	l := NewLAPIC()
	l.Deliver(48)
	if v, ok := l.Ack(); !ok || v != 48 {
		t.Fatalf("Ack = %d,%v", v, ok)
	}
	if l.Deliver(48) {
		t.Fatal("in-service vector re-latched instead of coalescing")
	}
	if l.Pending(48) {
		t.Fatal("IRR set while vector in service")
	}
	l.EOI()
	// After EOI the vector is deliverable again.
	if !l.Deliver(48) {
		t.Fatal("vector not deliverable after EOI")
	}
}
