package core

import (
	"repro/internal/mem"
	"repro/internal/pci"
	"repro/internal/virtio"
)

// Thin aliases keeping the DVH tests readable.

type vdesc = virtio.Descriptor

func newDriverQueue(space virtio.DMA, base mem.Addr, size uint16) (*virtio.DriverQueue, error) {
	return virtio.NewDriverQueue(space, base, size)
}

func newQueue(dma virtio.DMA, size uint16, desc, avail, used mem.Addr) *virtio.Queue {
	return virtio.NewQueue(dma, size, desc, avail, used)
}

func pciHasMigrationCap(fn *pci.Function) bool {
	_, ok := fn.Config.FindCapability(pci.CapMigration)
	return ok
}

const (
	pciMigDirtyLog = pci.MigCtrlDirtyLog
	pciMigCapture  = pci.MigCtrlCapture
)
