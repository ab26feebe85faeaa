package sim

import "fmt"

// EventID numbers scheduled events in scheduling order, starting at 1.
type EventID uint64

// scheduled is one pending event. IDs are handed out in scheduling order,
// so (when, id) orders events by time and, at equal times, FIFO.
type scheduled[T any] struct {
	when Time
	id   EventID
	x    T
}

func (a *scheduled[T]) before(b *scheduled[T]) bool {
	return a.when < b.when || a.when == b.when && a.id < b.id
}

// Engine is a deterministic discrete-event queue whose events carry a
// payload of type T. Events fire in timestamp order; events with equal
// timestamps fire in the order they were scheduled. The engine is
// single-threaded by design: determinism matters more to the experiments
// than host parallelism, and the paper's phenomena (exit multiplication,
// interrupt latency) are properties of the simulated timeline, not of host
// concurrency. The zero value is an empty queue with the clock at time zero.
//
// The queue is a binary min-heap of event values ordered by (when, id).
// Because that order is total, the firing sequence does not depend on how
// the heap arranges ties; a warm queue schedules and fires without
// allocating.
type Engine[T any] struct {
	clock  Clock
	queue  []scheduled[T]
	nextID EventID
}

// Now returns the current simulated time.
func (e *Engine[T]) Now() Time { return e.clock.Now() }

// ScheduleAt queues an event carrying x at absolute time t and returns its
// ID. Scheduling in the past is a programming error and panics.
func (e *Engine[T]) ScheduleAt(t Time, x T) EventID {
	if t < e.clock.Now() {
		//nvlint:ignore nopanic simulation-kernel invariant; scheduling into the past would corrupt the timeline
		panic(fmt.Sprintf("sim: event scheduled in the past: %d < %d", t, e.clock.Now()))
	}
	e.nextID++
	e.queue = append(e.queue, scheduled[T]{when: t, id: e.nextID, x: x})
	e.up(len(e.queue) - 1)
	return e.nextID
}

// RunUntil fires every event due by t in (when, id) order: it advances the
// clock to the event's time and passes the event's payload to fire, which
// may schedule further events. Then it advances the clock to exactly t.
func (e *Engine[T]) RunUntil(t Time, fire func(T)) {
	for len(e.queue) > 0 && e.queue[0].when <= t {
		next := e.queue[0]
		last := len(e.queue) - 1
		e.queue[0] = e.queue[last]
		e.queue[last] = scheduled[T]{} // drop the payload reference
		e.queue = e.queue[:last]
		e.down(0)
		e.clock.AdvanceTo(next.when)
		fire(next.x)
	}
	if t > e.clock.Now() {
		e.clock.AdvanceTo(t)
	}
}

// up moves the event at index i toward the root until its parent precedes it.
func (e *Engine[T]) up(i int) {
	q := e.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// down moves the event at index i toward the leaves until it precedes both
// children.
func (e *Engine[T]) down(i int) {
	q := e.queue
	for {
		least := i
		if l := 2*i + 1; l < len(q) && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(q) && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}
