// Package migrate implements pre-copy live migration for the simulator,
// reproducing the paper's Section 4 migration experiments and the Section
// 3.6 design: iterative memory copying with dirty-page logging, a
// bandwidth-limited transfer model (QEMU's default 268 Mbps), device-state
// capture, and — the part DVH makes possible — migration of nested VMs that
// use virtual-passthrough, where pages dirtied by device DMA are invisible
// to the guest hypervisor unless the host exports them through the PCI
// migration capability.
//
// Pages really move: the destination VM receives the source's bytes, so a
// missed dirty page shows up as a content mismatch, exactly the data-loss
// failure the paper's migration capability exists to prevent.
package migrate

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/mem"
	"repro/internal/pci"
)

// DefaultBandwidth is QEMU's default migration transfer limit, used in the
// paper's experiments: 268 Mbps.
const DefaultBandwidth = 268_000_000

// Options tunes a migration.
type Options struct {
	// BandwidthBitsPerSec limits transfer (default DefaultBandwidth).
	BandwidthBitsPerSec uint64
	// DowntimeLimit is the stop-and-copy budget: pre-copy iterates until the
	// remaining dirty set fits (default 300 ms, QEMU's default).
	DowntimeLimit time.Duration
	// MaxRounds bounds pre-copy iteration (default 30, QEMU-like).
	MaxRounds int
}

func (o *Options) fill() {
	if o.BandwidthBitsPerSec == 0 {
		o.BandwidthBitsPerSec = DefaultBandwidth
	}
	if o.DowntimeLimit == 0 {
		o.DowntimeLimit = 300 * time.Millisecond
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 30
	}
}

// Churn models the workload running during migration: how many distinct
// pages its CPUs and its devices' DMA dirty per second.
type Churn struct {
	// WorkingSetPages is the memory footprint the workload keeps touching.
	WorkingSetPages int
	// CPUPagesPerSec is the guest-visible dirtying rate.
	CPUPagesPerSec float64
	// DMAPagesPerSec is the device-DMA dirtying rate (invisible to guest
	// hypervisors under virtual-passthrough).
	DMAPagesPerSec float64
}

// Plan describes one migration.
type Plan struct {
	// VM is the source. Migrating an L1 VM moves the whole stack inside it;
	// migrating a nested VM moves only that VM (the guest hypervisor's job).
	VM *hyper.VM
	// Dest, when non-nil, receives the memory image; it must be at least as
	// large as the source. With a nil Dest the transfer is accounted but not
	// materialized.
	Dest *hyper.VM
	// VP lists the virtual-passthrough devices assigned to the VM, whose DMA
	// dirt only the host can see.
	VP []*core.VPState
	// UseMigrationCap drives the paper's PCI migration capability: without
	// it, a VM using virtual-passthrough either cannot migrate safely or
	// silently loses DMA-dirtied pages (exposed by VerifyDest).
	UseMigrationCap bool
	// DVHSource/DVHDest, when set together with Dest, transfer the nested
	// VM's DVH virtual-hardware state (timer values, offsets, enable bits,
	// VCIMT) across — the Section 3.6 requirement that virtual hardware
	// state be saved and restored like any other device state.
	DVHSource *core.DVH
	DVHDest   *core.DVH
	// Churn is the concurrent workload model.
	Churn Churn
	// Options tune bandwidth and downtime.
	Options Options

	// pages is the page list every pre-copy round drains the dirty logs
	// into; union merges the guest-visible and DMA logs. Both are reused
	// across rounds. The first pass and VerifyDest read the written set in
	// runs and list no page.
	pages []mem.PFN
	union *mem.Bitmap
}

// Report summarizes a migration.
type Report struct {
	// Rounds is the number of pre-copy iterations (excluding stop-and-copy).
	Rounds int
	// PagesSent and BytesSent total the transfer.
	PagesSent uint64
	BytesSent uint64
	// TotalTime spans start to resume-at-destination.
	TotalTime time.Duration
	// Downtime is the stop-and-copy phase.
	Downtime time.Duration
	// DeviceStateBytes is the captured device state shipped in the blackout.
	DeviceStateBytes int
	// MissedDMAPages counts pages dirtied by DMA that the guest-visible log
	// never saw and the migration never re-sent — nonzero means a corrupted
	// destination (the failure mode the migration capability prevents).
	MissedDMAPages int
}

// transferTime converts bytes to wire time at the configured bandwidth.
func (o *Options) transferTime(bytes uint64) time.Duration {
	return time.Duration(float64(bytes*8) / float64(o.BandwidthBitsPerSec) * float64(time.Second))
}

// pagesFitting returns how many pages fit in a time budget.
func (o *Options) pagesFitting(d time.Duration) uint64 {
	bytes := uint64(float64(o.BandwidthBitsPerSec) / 8 * d.Seconds())
	return bytes / mem.PageSize
}

// Run executes the migration.
func (p *Plan) Run() (Report, error) {
	p.Options.fill()
	var rep Report
	if p.VM == nil {
		return rep, fmt.Errorf("migrate: no source VM")
	}
	if p.Dest != nil && p.Dest.NumPages < p.VM.NumPages {
		return rep, fmt.Errorf("migrate: destination %s (%d pages) smaller than source %s (%d)",
			p.Dest.Name, p.Dest.NumPages, p.VM.Name, p.VM.NumPages)
	}
	for _, dev := range p.VM.Devices {
		if dev.Phys != nil {
			return rep, fmt.Errorf("migrate: %s has physical device %s assigned; migration does not work using passthrough", p.VM.Name, dev.Name)
		}
	}
	if len(p.VP) > 0 && !p.UseMigrationCap {
		// The paper's point: a guest hypervisor would normally refuse this
		// configuration outright. We proceed so the data-loss failure is
		// observable, but only callers that explicitly opted out get here.
		for _, vp := range p.VP {
			vp.HostDirty.Reset()
		}
	}

	// Touch the working set so the first pass has real content to ship.
	churnState := newChurner(p.VM, p.VP, p.Churn, p.UseMigrationCap)
	if err := churnState.touchWorkingSet(); err != nil {
		return rep, err
	}

	// Begin logging: the guest-visible log plus (with the capability) the
	// host's DMA log behind the PCI migration capability.
	p.VM.StartDirtyLog()
	defer p.VM.StopDirtyLog()
	if p.UseMigrationCap {
		for _, vp := range p.VP {
			if err := vp.MigCap.GuestWriteCtrl(pci.MigCtrlDirtyLog); err != nil {
				return rep, err
			}
		}
	}

	// First pass: every written page, copied in runs read straight from
	// the written set. Each later round sends what the one before dirtied.
	sent := p.VM.WrittenCount()
	rep.PagesSent, rep.BytesSent = uint64(sent), uint64(sent)*mem.PageSize
	if p.Dest != nil {
		if err := p.VM.Memory().CopyWrittenTo(p.Dest.Memory()); err != nil {
			return rep, err
		}
	}
	pending := p.pages[:0]
	defer func() { p.pages = pending[:0] }()
	for {
		dur := p.Options.transferTime(uint64(sent) * mem.PageSize)
		rep.TotalTime += dur
		rep.Rounds++

		// The workload keeps running during the round and dirties pages.
		if err := churnState.run(dur); err != nil {
			return rep, err
		}

		pending = p.collectDirty(pending)
		if uint64(len(pending)) <= p.Options.pagesFitting(p.Options.DowntimeLimit) || rep.Rounds >= p.Options.MaxRounds {
			// Stop-and-copy: blackout, ship the remainder plus device state.
			var blob []byte
			for _, vp := range p.VP {
				if p.UseMigrationCap {
					if err := vp.MigCap.GuestWriteCtrl(pci.MigCtrlDirtyLog | pci.MigCtrlCapture); err != nil {
						return rep, err
					}
					blob = append(blob, vp.MigCap.CapturedState()...)
				}
			}
			if p.DVHSource != nil && p.Dest != nil && p.DVHDest != nil {
				dvhState, err := p.DVHSource.SaveVMState(p.VM)
				if err != nil {
					return rep, err
				}
				blob = append(blob, dvhState...)
				if err := p.DVHDest.RestoreVMState(p.Dest, dvhState); err != nil {
					return rep, err
				}
			}
			rep.DeviceStateBytes = len(blob)
			if err := p.copyPages(pending, &rep); err != nil {
				return rep, err
			}
			rep.Downtime = p.Options.transferTime(uint64(len(pending))*mem.PageSize + uint64(len(blob)))
			rep.TotalTime += rep.Downtime
			if p.Dest != nil && p.UseMigrationCap {
				for _, vp := range p.VP {
					destDev := p.Dest.FindDevice(vp.Dev.Class)
					if destDev != nil {
						if err := core.RestoreVPDeviceState(destDev, vp.MigCap.CapturedState()); err != nil {
							return rep, err
						}
					}
				}
			}
			rep.MissedDMAPages = churnState.missedDMA()
			return rep, nil
		}
		if err := p.copyPages(pending, &rep); err != nil {
			return rep, err
		}
		sent = len(pending)
	}
}

// collectDirty drains the guest-visible log and, when the migration
// capability is in use, the DMA logs it exports, returning each page once in
// ascending order, in buf's storage: buf is the list the round just sent.
// The union goes through a sparse bitmap, which keeps it ordered and
// duplicate-free in linear time.
func (p *Plan) collectDirty(buf []mem.PFN) []mem.PFN {
	dirty := p.VM.DrainDirty(buf[:0])
	if !p.UseMigrationCap || len(p.VP) == 0 {
		return dirty
	}
	n := uint64(p.VM.NumPages)
	for _, vp := range p.VP {
		n = max(n, vp.HostDirty.Len())
	}
	if p.union == nil || p.union.Len() != n {
		p.union = mem.NewBitmap(n)
	}
	set := p.union
	set.Reset()
	for _, pg := range dirty {
		set.Set(uint64(pg))
	}
	for _, vp := range p.VP {
		set.Or(vp.HostDirty)
		vp.HostDirty.Reset()
	}
	return set.AppendPFNs(dirty[:0])
}

// copyPages materializes the transfer into the destination (when present)
// and accounts it. The model charges a full page per page sent; the host
// moves each frame's written extent.
func (p *Plan) copyPages(pages []mem.PFN, rep *Report) error {
	rep.PagesSent += uint64(len(pages))
	rep.BytesSent += uint64(len(pages)) * mem.PageSize
	if p.Dest == nil {
		return nil
	}
	return p.VM.Memory().CopyPagesTo(p.Dest.Memory(), pages)
}

// VerifyDest compares every written source page against the destination,
// returning the mismatching pages. After a correct migration it is empty;
// after migrating a VP configuration without the migration capability it
// exposes the DMA-dirtied pages that were lost.
func (p *Plan) VerifyDest() ([]mem.PFN, error) {
	if p.Dest == nil {
		return nil, fmt.Errorf("migrate: no destination to verify")
	}
	return p.VM.Memory().DiffWritten(p.Dest.Memory())
}
