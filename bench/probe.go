package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// refNominal is the reference probe's typical time on the host the
// benchmark was defined on (a 2-vCPU Xeon VM). Reported times are at that
// speed.
const refNominal = 5 * time.Millisecond

// probeExponent is how much of the probe's swing a reported time is scaled
// by: times are multiplied by (refNominal / probe time)^probeExponent. When
// the shared host slows down, the probe slows more than the simulator's
// work does. Over six sets of ten seeded runs per workload, a workload's
// run time moved by 0.3 to 1.3 times the probe's move, 0.7 at the median
// (the slope of log time on log probe time, one fit per set), so scaling by
// the probe's full swing overcorrected. Scaling by its 0.6th power lowered
// each workload's mean spread across ten seeds, and more than halved
// migrate-churn's.
const probeExponent = 0.6

// refProbe is a fixed piece of host work that calls no simulator code, so no
// change to the simulator moves it: a strided sweep over 8 MiB (memory
// bandwidth, as in stack construction), map inserts and iteration (as in
// the runner's accounting), a cache-missing pointer chase (as in the exit
// pipeline) and pure compute. A shared host's speed drifts by tens of
// percent over minutes; scaling each iteration by the probe timed just
// before it takes much of that drift out of the reported times.
//
// Its memory is allocated once, up front, so a probe neither allocates nor
// page-faults and does not depend on the state of the simulator's heap.
type refProbe struct {
	pages []byte
	m     map[int]int
	head  *probeNode
	sink  byte
}

type probeNode struct {
	next *probeNode
	pad  [6]uint64
}

const probeKeys = 50000

// probeRuns is how many timed passes one probe makes; it reports their
// median.
const probeRuns = 4

func newRefProbe() *refProbe {
	p := &refProbe{pages: make([]byte, 8<<20), m: make(map[int]int, probeKeys)}
	nodes := make([]probeNode, 1<<16)
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	x := uint64(88172645463325252)
	for i := len(order) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for i := 0; i+1 < len(order); i++ {
		nodes[order[i]].next = &nodes[order[i+1]]
	}
	p.head = &nodes[order[0]]
	p.pass() // the first pass faults the pages in
	return p
}

// time runs the probe and returns the median time of probeRuns passes. An
// untimed pass comes first: after a collection or an iteration the first
// pass finds the probe's memory evicted from the caches and runs 30-40%
// slower, and scaling by that cold pass left more spread across ten seeded
// runs than scaling by warm passes, on three workloads of four.
func (p *refProbe) time() time.Duration {
	p.pass()
	runs := make([]time.Duration, probeRuns)
	for i := range runs {
		runs[i] = p.pass()
	}
	slices.Sort(runs)
	return (runs[(probeRuns-1)/2] + runs[probeRuns/2]) / 2
}

// pass runs the probe's work once and returns how long it took.
func (p *refProbe) pass() time.Duration {
	start := time.Now()
	for i := 0; i < len(p.pages); i += 64 {
		p.pages[i]++
	}
	clear(p.m)
	for i := 0; i < probeKeys; i++ {
		p.m[i*7] = i
	}
	for k, v := range p.m {
		p.sink ^= byte(k + v)
	}
	for n := p.head; n != nil; n = n.next {
		p.sink ^= byte(n.pad[0])
	}
	sum := sha256.Sum256(p.pages[:256<<10])
	p.sink ^= sum[0]
	return time.Since(start)
}
