package apic

import "testing"

func BenchmarkDeliverAckEOI(b *testing.B) {
	l := NewLAPIC()
	for i := 0; i < b.N; i++ {
		l.Deliver(VectorTimer)
		l.Ack()
		l.EOI()
	}
}

func BenchmarkPostedInterruptRoundTrip(b *testing.B) {
	p := NewPIDescriptor(1)
	l := NewLAPIC()
	for i := 0; i < b.N; i++ {
		p.Post(VectorVirtioIRQ)
		p.Sync(l)
		l.Ack()
		l.EOI()
	}
}
