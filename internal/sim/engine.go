package sim

import "fmt"

// Event is a callback scheduled to run at a point on the simulated timeline.
// The engine invokes it with the engine itself so handlers can schedule
// follow-on events.
type Event func(e *Engine)

// EventID numbers scheduled events in scheduling order, starting at 1.
type EventID uint64

// scheduled is one pending event. IDs are handed out in scheduling order,
// so (when, id) orders events by time and, at equal times, FIFO.
type scheduled struct {
	when Time
	id   EventID
	fn   Event
}

func (a *scheduled) before(b *scheduled) bool {
	return a.when < b.when || a.when == b.when && a.id < b.id
}

// Engine is a deterministic discrete-event simulation kernel. Events fire in
// timestamp order; events with equal timestamps fire in the order they were
// scheduled. The engine is single-threaded by design: determinism matters more
// to the experiments than host parallelism, and the paper's phenomena (exit
// multiplication, interrupt latency) are properties of the simulated timeline,
// not of host concurrency.
//
// The queue is a binary min-heap of event values ordered by (when, id).
// Because that order is total, the firing sequence does not depend on how
// the heap arranges ties; a warm queue schedules and fires without
// allocating.
type Engine struct {
	clock  Clock
	queue  []scheduled
	nextID EventID
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.clock.Now() }

// ScheduleAt arranges for fn to run at absolute time t and returns its ID.
// Scheduling in the past is a programming error and panics.
func (e *Engine) ScheduleAt(t Time, fn Event) EventID {
	if fn == nil {
		//nvlint:ignore nopanic simulation-kernel invariant; a nil event means the caller is broken, not the run
		panic("sim: ScheduleAt with nil event")
	}
	if t < e.clock.Now() {
		//nvlint:ignore nopanic simulation-kernel invariant; scheduling into the past would corrupt the timeline
		panic(fmt.Sprintf("sim: event scheduled in the past: %d < %d", t, e.clock.Now()))
	}
	e.nextID++
	e.queue = append(e.queue, scheduled{when: t, id: e.nextID, fn: fn})
	e.up(len(e.queue) - 1)
	return e.nextID
}

// step fires the earliest pending event if it is due by limit. It reports
// false when the queue is empty or the next event lies after limit.
func (e *Engine) step(limit Time) bool {
	if len(e.queue) == 0 || e.queue[0].when > limit {
		return false
	}
	next := e.queue[0]
	last := len(e.queue) - 1
	e.queue[0] = e.queue[last]
	e.queue[last] = scheduled{} // drop the handler reference
	e.queue = e.queue[:last]
	e.down(0)
	e.clock.AdvanceTo(next.when)
	next.fn(e)
	return true
}

// up moves the event at index i toward the root until its parent precedes it.
func (e *Engine) up(i int) {
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
func (e *Engine) down(i int) {
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

// RunUntil fires events until the queue is empty or the next event lies after
// t, then advances the clock to exactly t. It returns the number of events
// fired.
func (e *Engine) RunUntil(t Time) int {
	n := 0
	for e.step(t) {
		n++
	}
	if t > e.clock.Now() {
		e.clock.AdvanceTo(t)
	}
	return n
}
