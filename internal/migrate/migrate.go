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

	// union merges the guest-visible and DMA logs every pre-copy round and
	// is reused across rounds. Every pass copies its page set in runs read
	// straight from a bitmap and lists no page.
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

	// First pass: every written page. Each later round sends what the one
	// before dirtied and then resets that set; nothing writes the source in
	// between, so this equals draining the logs before the copy.
	written := p.VM.WrittenSet()
	sent := written.Count()
	rep.PagesSent, rep.BytesSent = sent, sent*mem.PageSize
	if p.Dest != nil {
		if err := p.VM.Memory().CopyPagesTo(p.Dest.Memory(), written); err != nil {
			return rep, err
		}
	}
	for {
		dur := p.Options.transferTime(sent * mem.PageSize)
		rep.TotalTime += dur
		rep.Rounds++

		// The workload keeps running during the round and dirties pages.
		if err := churnState.run(dur); err != nil {
			return rep, err
		}

		dirty := p.dirtySet()
		sent = dirty.Count()
		if sent <= p.Options.pagesFitting(p.Options.DowntimeLimit) || rep.Rounds >= p.Options.MaxRounds {
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
			if err := p.sendRound(dirty, sent, &rep); err != nil {
				return rep, err
			}
			rep.Downtime = p.Options.transferTime(sent*mem.PageSize + uint64(len(blob)))
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
		if err := p.sendRound(dirty, sent, &rep); err != nil {
			return rep, err
		}
	}
}

// dirtySet returns the pages the last round dirtied: the guest-visible log
// itself, or, when the migration capability is in use, the reused union
// into which it ORs that log and the DMA logs the capability exports,
// resetting each. The union keeps the pages ordered and duplicate-free in
// linear time.
func (p *Plan) dirtySet() *mem.Bitmap {
	log := p.VM.DirtyLog()
	if !p.UseMigrationCap || len(p.VP) == 0 {
		return log
	}
	n := uint64(p.VM.NumPages)
	for _, vp := range p.VP {
		n = max(n, vp.HostDirty.Len())
	}
	if p.union == nil || p.union.Len() != n {
		p.union = mem.NewBitmap(n)
	}
	p.union.Or(log)
	log.Reset()
	for _, vp := range p.VP {
		p.union.Or(vp.HostDirty)
		vp.HostDirty.Reset()
	}
	return p.union
}

// sendRound accounts a round's n dirty pages, copies them to the
// destination (when present) and resets the set for the next round. The
// model charges a full page per page sent; the host moves each frame's
// written extent.
func (p *Plan) sendRound(dirty *mem.Bitmap, n uint64, rep *Report) error {
	rep.PagesSent += n
	rep.BytesSent += n * mem.PageSize
	if p.Dest != nil {
		if err := p.VM.Memory().CopyPagesTo(p.Dest.Memory(), dirty); err != nil {
			return err
		}
	}
	dirty.Reset()
	return nil
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
