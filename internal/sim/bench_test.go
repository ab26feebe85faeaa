package sim

import "testing"

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleAt(e.Now()+1, fn)
		e.RunUntil(e.Now() + 2)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}
