package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// FuzzEngine decodes bytes into interleaved Schedule, ScheduleAt, Cancel
// (of pending, fired and unknown IDs), RunUntil and Run steps whose handlers
// schedule follow-on events or call Stop, runs them on the engine and on a
// sorted-slice reference, and requires the same firing sequence (id, time),
// returned IDs, Cancel results, fire counts, clock and Pending after every
// step.
func FuzzEngine(f *testing.F) {
	// Ten events at one time, five by Schedule and five by ScheduleAt, fire
	// in scheduling order.
	f.Add([]byte{0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0,
		1, 3, 0, 1, 3, 0, 1, 3, 0, 1, 3, 0, 1, 3, 0, 4})
	// Seven events out of time order. Cancelling the one at 11 moves the
	// last (at 3) into its slot below the one at 10, so it must sift up; it
	// is cancelled again, two later events land behind it, some fire, a
	// fired one is cancelled, and the rest drain.
	f.Add([]byte{0, 0, 0, 0, 10, 0, 0, 1, 0, 0, 11, 0, 0, 12, 0, 0, 2, 0, 0, 3, 0,
		2, 2, 4, 2, 2, 4, 0, 14, 0, 0, 15, 0, 3, 2, 2, 1, 0, 4})
	// At time 5, a delay that would wrap the timeline clamps to the end of
	// time; the clock reaches it, and later schedules and runs saturate there.
	f.Add([]byte{0, 5, 0, 4, 5, 2, 0, 4, 0, 3, 0, 1, 9, 0, 3, 40, 4})
	// A handler stops a RunUntil with events still due before its limit;
	// the clock stays at the stop and the next Run fires them, including a
	// follow-on.
	f.Add([]byte{0, 4, 1, 0, 4, 0, 0, 6, 2, 3, 3, 15, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &decoder{data: data}
		e := &engineSide{e: NewEngine()}
		r := &refSide{}
		for step := 0; step < 128 && !d.done(); step++ {
			desc, got, want := applyStep(d, e, r)
			if got != want {
				t.Fatalf("step %d %s: engine %s, reference %s", step, desc, got, want)
			}
			if !slices.Equal(e.fired, r.fired) {
				t.Fatalf("step %d %s: engine fired %v, reference %v", step, desc, e.fired, r.fired)
			}
			if e.e.Now() != r.clock || e.e.Pending() != len(r.queue) {
				t.Fatalf("step %d %s: engine at %d with %d pending, reference at %d with %d",
					step, desc, e.e.Now(), e.e.Pending(), r.clock, len(r.queue))
			}
		}
	})
}

// action is what a handler does when its event fires: nothing, Stop, or
// schedule a follow-on after delay whose own action is next.
type action struct {
	stop   bool
	follow bool
	delay  Cycles
	next   *action
}

// firing is one fired event: its ID and the clock when it fired.
type firing struct {
	id   EventID
	when Time
}

// decoder reads steps from fuzz bytes; past the end it reads zeros.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) done() bool { return d.pos >= len(d.data) }

func (d *decoder) byte() byte {
	if d.done() {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// delay decodes a small delay (many events share a time) or, from the top
// of the byte range, a large one.
func (d *decoder) delay() Cycles {
	b := d.byte()
	if b < 200 {
		return Cycles(b % 16)
	}
	return Cycles(b) * 1000
}

// action decodes a handler: 0 nothing, 1 Stop, 2 a follow-on, 3 a follow-on
// that itself schedules one more.
func (d *decoder) action() action {
	switch d.byte() % 4 {
	case 1:
		return action{stop: true}
	case 2:
		return action{follow: true, delay: d.delay(), next: &action{}}
	case 3:
		inner := action{follow: true, delay: d.delay(), next: &action{}}
		return action{follow: true, delay: d.delay(), next: &inner}
	}
	return action{}
}

// satAdd adds without wrapping past the end of the timeline.
func satAdd(t Time, c Cycles) Time {
	if s := t + c; s >= t {
		return s
	}
	return ^Time(0)
}

// applyStep decodes one step, applies it to both sides and returns a
// description and each side's result.
func applyStep(d *decoder, e *engineSide, r *refSide) (desc, got, want string) {
	switch op := d.byte() % 6; op {
	case 0:
		delay, a := d.delay(), d.action()
		return fmt.Sprintf("Schedule(%d)", delay), fmt.Sprint(e.schedule(delay, a)), fmt.Sprint(r.schedule(delay, a))
	case 1:
		at, a := satAdd(r.clock, d.delay()), d.action()
		return fmt.Sprintf("ScheduleAt(%d)", at), fmt.Sprint(e.scheduleAt(at, a)), fmt.Sprint(r.scheduleAt(at, a))
	case 2:
		id := pickID(d, r)
		return fmt.Sprintf("Cancel(%d)", id), fmt.Sprint(e.e.Cancel(id)), fmt.Sprint(r.cancel(id))
	case 3:
		limit := satAdd(r.clock, d.delay())
		return fmt.Sprintf("RunUntil(%d)", limit), fmt.Sprint(e.e.RunUntil(limit)), fmt.Sprint(r.runUntil(limit))
	case 4:
		return "Run()", fmt.Sprint(e.e.Run()), fmt.Sprint(r.run())
	default:
		// A delay that wraps the unsigned timeline clamps to its end.
		delay, a := ^Cycles(0)-Cycles(d.byte()), d.action()
		return fmt.Sprintf("Schedule(%d)", delay), fmt.Sprint(e.schedule(delay, a)), fmt.Sprint(r.schedule(delay, a))
	}
}

// pickID chooses a pending ID, an already-fired ID, or any small ID: one
// already cancelled or fired, one never handed out, or the zero ID.
func pickID(d *decoder, r *refSide) EventID {
	sel, n := d.byte()%3, int(d.byte())
	switch {
	case sel == 0 && len(r.queue) > 0:
		return r.queue[n%len(r.queue)].id
	case sel == 1 && len(r.fired) > 0:
		return r.fired[n%len(r.fired)].id
	}
	return EventID(n)
}

// engineSide drives the Engine under test.
type engineSide struct {
	e     *Engine
	fired []firing
}

func (s *engineSide) handler(id *EventID, a action) Event {
	return func(e *Engine) {
		s.fired = append(s.fired, firing{*id, e.Now()})
		if a.stop {
			e.Stop()
		}
		if a.follow {
			s.schedule(a.delay, *a.next)
		}
	}
}

func (s *engineSide) schedule(delay Cycles, a action) EventID {
	id := new(EventID)
	*id = s.e.Schedule(delay, s.handler(id, a))
	return *id
}

func (s *engineSide) scheduleAt(t Time, a action) EventID {
	id := new(EventID)
	*id = s.e.ScheduleAt(t, s.handler(id, a))
	return *id
}

// refSide is the reference: pending events in a slice kept sorted by
// (when, id), fired from the front.
type refSide struct {
	clock   Time
	nextID  EventID
	queue   []refEvent
	stopped bool
	fired   []firing
}

type refEvent struct {
	when Time
	id   EventID
	a    action
}

func (r *refSide) schedule(delay Cycles, a action) EventID {
	return r.scheduleAt(satAdd(r.clock, delay), a)
}

func (r *refSide) scheduleAt(t Time, a action) EventID {
	r.nextID++
	ev := refEvent{t, r.nextID, a}
	i, _ := slices.BinarySearchFunc(r.queue, ev, func(q, ev refEvent) int {
		return cmp.Or(cmp.Compare(q.when, ev.when), cmp.Compare(q.id, ev.id))
	})
	r.queue = slices.Insert(r.queue, i, ev)
	return ev.id
}

func (r *refSide) cancel(id EventID) bool {
	for i, ev := range r.queue {
		if ev.id == id {
			r.queue = slices.Delete(r.queue, i, i+1)
			return true
		}
	}
	return false
}

// fireNext fires the earliest event if it is due by limit.
func (r *refSide) fireNext(limit Time) bool {
	if len(r.queue) == 0 || r.queue[0].when > limit {
		return false
	}
	ev := r.queue[0]
	r.queue = r.queue[1:]
	r.clock = ev.when
	r.fired = append(r.fired, firing{ev.id, ev.when})
	if ev.a.stop {
		r.stopped = true
	}
	if ev.a.follow {
		r.schedule(ev.a.delay, *ev.a.next)
	}
	return true
}

func (r *refSide) runUntil(t Time) int {
	r.stopped = false
	n := 0
	for !r.stopped && r.fireNext(t) {
		n++
	}
	if !r.stopped && t > r.clock {
		r.clock = t
	}
	return n
}

func (r *refSide) run() Time {
	r.stopped = false
	for !r.stopped && r.fireNext(^Time(0)) {
	}
	return r.clock
}
