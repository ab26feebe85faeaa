package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %d, want 0", c.Now())
	}
	c.AdvanceTo(100)
	if c.Now() != 100 {
		t.Fatalf("clock at %d, want 100", c.Now())
	}
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Fatalf("clock at %d, want 250", c.Now())
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backwards did not panic")
		}
	}()
	var c Clock
	c.AdvanceTo(10)
	c.AdvanceTo(5)
}

func TestCyclesString(t *testing.T) {
	cases := map[Cycles]string{
		0:         "0",
		999:       "999",
		1000:      "1,000",
		37733:     "37,733",
		857578:    "857,578",
		1_000_000: "1,000,000",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Cycles(%d).String() = %q, want %q", uint64(in), got, want)
		}
	}
}

// record returns a fire function that appends each payload to order.
func record(order *[]int) func(int) {
	return func(x int) { *order = append(*order, x) }
}

func TestEngineOrdering(t *testing.T) {
	var e Engine[int]
	var order []int
	e.ScheduleAt(30, 3)
	e.ScheduleAt(10, 1)
	e.ScheduleAt(20, 2)
	e.RunUntil(30, record(&order))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	var e Engine[int]
	var order []int
	for i := 0; i < 10; i++ {
		if id := e.ScheduleAt(5, i); id != EventID(i+1) {
			t.Fatalf("event %d got ID %d, want %d", i, id, i+1)
		}
	}
	e.RunUntil(5, record(&order))
	if len(order) != 10 {
		t.Fatalf("fired %d simultaneous events, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of order: %v", order)
		}
	}
}

func TestEngineCascade(t *testing.T) {
	var e Engine[int]
	count := 0
	var last Time
	tick := func(int) {
		count++
		last = e.Now()
		if count < 5 {
			e.ScheduleAt(e.Now()+100, 0)
		}
	}
	e.ScheduleAt(100, 0)
	e.RunUntil(^Time(0), tick)
	if count != 5 {
		t.Fatalf("fired %d ticks, want 5", count)
	}
	if last != 500 {
		t.Fatalf("last tick at %d, want 500", last)
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine[int]
	count := 0
	tick := func(int) {
		count++
		e.ScheduleAt(e.Now()+100, 0)
	}
	e.ScheduleAt(100, 0)
	e.RunUntil(1000, tick)
	if count != 10 {
		t.Fatalf("fired %d events, want 10", count)
	}
	if e.Now() != 1000 {
		t.Fatalf("clock at %d, want exactly 1000", e.Now())
	}
	if len(e.queue) != 1 {
		t.Fatalf("%d pending events, want 1", len(e.queue))
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine[int]
	e.ScheduleAt(10, 0)
	e.RunUntil(10, record(new([]int)))
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(5, 0)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnProperty(t *testing.T) {
	r := NewRNG(11)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
