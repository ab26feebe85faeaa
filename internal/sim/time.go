// Package sim provides the simulator's deterministic primitives: a virtual
// clock measured in CPU cycles, the cycle type every subsystem accounts in, a
// typed event queue with stable FIFO ordering for simultaneous events (the
// host-timer timeline a hyper.World owns), and a seedable random number
// generator.
//
// All simulated time is expressed in cycles of the simulated platform clock
// (2.2 GHz for the CloudLab configuration the paper uses). Using cycles rather
// than wall time keeps the model aligned with the paper's Table 3, which
// reports microbenchmark costs directly in CPU cycles.
package sim

import "fmt"

// Cycles is a quantity of simulated CPU cycles. It is used both for durations
// and, as Time, for absolute positions on the simulated timeline.
type Cycles uint64

// Time is an absolute position on the simulated timeline, in cycles since the
// start of the simulation.
type Time = Cycles

// DefaultClockHz is the simulated core clock rate: 2.2 GHz, matching the
// Intel Xeon Silver 4114 machines used in the paper's evaluation.
const DefaultClockHz = 2_200_000_000

// String renders the cycle count with a thousands separator, the way the
// paper's Table 3 presents costs (e.g. "37,733").
func (c Cycles) String() string {
	s := fmt.Sprintf("%d", uint64(c))
	n := len(s)
	if n <= 3 {
		return s
	}
	var out []byte
	for i, ch := range []byte(s) {
		if i > 0 && (n-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, ch)
	}
	return string(out)
}

// Clock is a virtual clock. The zero value is a clock at time zero.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// AdvanceTo moves the clock forward to t. Moving backwards is a programming
// error in the simulation kernel and panics.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		//nvlint:ignore nopanic simulation-kernel invariant; a backwards clock invalidates every measurement
		panic(fmt.Sprintf("sim: clock moved backwards: %d -> %d", c.now, t))
	}
	c.now = t
}
