package sim

import "testing"

func BenchmarkEngineScheduleFire(b *testing.B) {
	var e Engine[int]
	fire := func(int) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleAt(e.Now()+1, i)
		e.RunUntil(e.Now()+2, fire)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}
