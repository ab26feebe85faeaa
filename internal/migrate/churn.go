package migrate

import (
	"encoding/binary"
	"time"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/mem"
)

// churner generates the workload's memory traffic during migration: CPU
// writes through guest memory (visible to every dirty log) and device DMA
// writes through the VP devices' DMA views (visible only host-side). Writes
// are real, so a page the migration misses ends up content-divergent at the
// destination.
type churner struct {
	vm    *hyper.VM
	vp    []*core.VPState
	churn Churn

	cpuCursor mem.PFN
	dmaCursor mem.PFN
	// dmaTouched tracks pages dirtied by DMA after their last CPU write, the
	// candidates for silent loss without the migration capability. It is
	// nil when the capability exports the DMA log, which loses none.
	dmaTouched map[mem.PFN]bool
	// dmaBuf is the quadword each DMA write stores, kept here so that no
	// write moves a buffer of its own to the heap.
	dmaBuf [8]byte
	serial uint64
}

// newChurner returns the churner for a migration that uses the migration
// capability or not (useCap).
func newChurner(vm *hyper.VM, vp []*core.VPState, c Churn, useCap bool) *churner {
	if c.WorkingSetPages <= 0 {
		c.WorkingSetPages = 1024
	}
	if c.WorkingSetPages > int(vm.NumPages) {
		c.WorkingSetPages = int(vm.NumPages)
	}
	ch := &churner{vm: vm, vp: vp, churn: c}
	if !useCap {
		ch.dmaTouched = make(map[mem.PFN]bool)
	}
	return ch
}

// touchWorkingSet writes identifiable content to every working-set page so
// the first migration pass ships real data.
func (c *churner) touchWorkingSet() error {
	return c.write(0, c.churn.WorkingSetPages)
}

// write stores the next n serials in the first quadwords of guest pages
// [p, p+n), one serial per page in ascending order, through guest memory.
func (c *churner) write(p mem.PFN, n int) error {
	first := c.serial + 1
	c.serial += uint64(n)
	return c.vm.Memory().WritePageQuads(p, n, func(i int) uint64 { return first + uint64(i) })
}

// run advances the workload for the given wall-time span, performing the
// corresponding number of CPU and DMA page writes. The CPU writes go in runs
// of consecutive pages, split where the cursor wraps around the working set.
func (c *churner) run(d time.Duration) error {
	cpuWrites := int(c.churn.CPUPagesPerSec * d.Seconds())
	dmaWrites := int(c.churn.DMAPagesPerSec * d.Seconds())
	ws := mem.PFN(c.churn.WorkingSetPages)
	for cpuWrites > 0 {
		pg := c.cpuCursor % ws
		n := int(min(mem.PFN(cpuWrites), ws-pg))
		if err := c.write(pg, n); err != nil {
			return err
		}
		if len(c.dmaTouched) > 0 {
			for i := range mem.PFN(n) {
				delete(c.dmaTouched, pg+i)
			}
		}
		c.cpuCursor += mem.PFN(n)
		cpuWrites -= n
	}
	if len(c.vp) > 0 {
		for i := 0; i < dmaWrites; i++ {
			// Spread DMA over the upper half of the working set, offset from
			// the CPU cursor so the two streams overlap only partially.
			pg := (c.dmaCursor + ws/2) % ws
			c.dmaCursor++
			c.serial++
			binary.LittleEndian.PutUint64(c.dmaBuf[:], c.serial)
			if err := c.vp[0].Dev.DMAView.Write(pg.Base(), c.dmaBuf[:]); err != nil {
				return err
			}
			if c.dmaTouched != nil {
				c.dmaTouched[pg] = true
			}
		}
	}
	return nil
}

// missedDMA reports how many DMA-dirtied pages the migration could have
// missed: zero when the capability exported them (nothing is tracked then),
// the accumulated count otherwise. (VerifyDest gives ground truth; this is
// the accounting view.)
func (c *churner) missedDMA() int { return len(c.dmaTouched) }
