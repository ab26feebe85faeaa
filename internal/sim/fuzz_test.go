package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// FuzzEngine decodes bytes into interleaved ScheduleAt and RunUntil steps
// (including runs and schedules at the end of the timeline) whose events
// carry actions that the fire function carries out, scheduling follow-on
// events from inside RunUntil. It runs them on the engine and on a
// sorted-slice reference, and requires the same firing sequence (id, time),
// returned IDs, clock and pending count after every step.
func FuzzEngine(f *testing.F) {
	// Ten events at one time fire in scheduling order.
	f.Add([]byte{0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0,
		0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 3})
	// Seven events out of time order; some fire, two later events land
	// behind the rest, and everything drains.
	f.Add([]byte{0, 0, 0, 0, 10, 0, 0, 1, 0, 0, 11, 0, 0, 12, 0, 0, 2, 0, 0, 3, 0,
		1, 2, 0, 14, 0, 0, 15, 0, 1, 2, 3})
	// Events at the end of time, one with a follow-on that saturates there;
	// the clock reaches the end, and later schedules and runs stay there.
	f.Add([]byte{2, 5, 0, 2, 0, 1, 9, 3, 0, 3, 0, 1, 40, 3})
	// A RunUntil fires a follow-on chain due before its limit and leaves
	// the later link pending; a drain fires it.
	f.Add([]byte{0, 4, 2, 6, 8, 0, 4, 0, 1, 15, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &decoder{data: data}
		e := &engineSide{}
		r := &refSide{}
		for step := 0; step < 128 && !d.done(); step++ {
			desc, got, want := applyStep(d, e, r)
			if got != want {
				t.Fatalf("step %d %s: engine %s, reference %s", step, desc, got, want)
			}
			if !slices.Equal(e.fired, r.fired) {
				t.Fatalf("step %d %s: engine fired %v, reference %v", step, desc, e.fired, r.fired)
			}
			if e.e.Now() != r.clock || len(e.e.queue) != len(r.queue) {
				t.Fatalf("step %d %s: engine at %d with %d pending, reference at %d with %d",
					step, desc, e.e.Now(), len(e.e.queue), r.clock, len(r.queue))
			}
		}
	})
}

// action is what the fire function does with an event: nothing, or schedule
// a follow-on after delay whose own action is next.
type action struct {
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

// action decodes an event's action: 0 nothing, 1 a follow-on, 2 a follow-on
// that itself schedules one more.
func (d *decoder) action() action {
	switch d.byte() % 3 {
	case 1:
		return action{follow: true, delay: d.delay(), next: &action{}}
	case 2:
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
// description and each side's result: the ID a schedule returns, and
// nothing for a run, which the firing sequence checks.
func applyStep(d *decoder, e *engineSide, r *refSide) (desc, got, want string) {
	switch op := d.byte() % 4; op {
	case 0:
		at, a := satAdd(r.clock, d.delay()), d.action()
		return fmt.Sprintf("ScheduleAt(%d)", at), fmt.Sprint(e.scheduleAt(at, a)), fmt.Sprint(r.scheduleAt(at, a))
	case 1:
		limit := satAdd(r.clock, d.delay())
		e.e.RunUntil(limit, e.fire)
		r.runUntil(limit)
		return fmt.Sprintf("RunUntil(%d)", limit), "", ""
	case 2:
		// Within 255 cycles of the end of the timeline, never before now.
		at, a := max(r.clock, ^Time(0)-Time(d.byte())), d.action()
		return fmt.Sprintf("ScheduleAt(%d)", at), fmt.Sprint(e.scheduleAt(at, a)), fmt.Sprint(r.scheduleAt(at, a))
	default:
		e.e.RunUntil(^Time(0), e.fire)
		r.runUntil(^Time(0))
		return "RunUntil(end)", "", ""
	}
}

// engineSide drives the Engine under test. Each event's payload is the
// pending event itself.
type engineSide struct {
	e     Engine[*pending]
	fired []firing
}

// pending is one event as the engine side schedules it: its ID, set once
// ScheduleAt returns, and its action.
type pending struct {
	id EventID
	a  action
}

// fire records the firing and schedules the event's follow-on, if any.
func (s *engineSide) fire(p *pending) {
	s.fired = append(s.fired, firing{p.id, s.e.Now()})
	if p.a.follow {
		s.scheduleAt(satAdd(s.e.Now(), p.a.delay), *p.a.next)
	}
}

func (s *engineSide) scheduleAt(t Time, a action) EventID {
	p := &pending{a: a}
	p.id = s.e.ScheduleAt(t, p)
	return p.id
}

// refSide is the reference: pending events in a slice kept sorted by
// (when, id), fired from the front.
type refSide struct {
	clock  Time
	nextID EventID
	queue  []refEvent
	fired  []firing
}

type refEvent struct {
	when Time
	id   EventID
	a    action
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

// fireNext fires the earliest event if it is due by limit.
func (r *refSide) fireNext(limit Time) bool {
	if len(r.queue) == 0 || r.queue[0].when > limit {
		return false
	}
	ev := r.queue[0]
	r.queue = r.queue[1:]
	r.clock = ev.when
	r.fired = append(r.fired, firing{ev.id, ev.when})
	if ev.a.follow {
		r.scheduleAt(satAdd(r.clock, ev.a.delay), *ev.a.next)
	}
	return true
}

func (r *refSide) runUntil(t Time) {
	for r.fireNext(t) {
	}
	if t > r.clock {
		r.clock = t
	}
}
