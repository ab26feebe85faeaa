package virtio

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pci"
)

// Virtio PCI identity constants.
const (
	VendorVirtio  = 0x1af4
	DeviceIDNet   = 0x1000
	DeviceIDBlock = 0x1001
	ClassNetwork  = 0x020000
	ClassStorage  = 0x010000
)

// Device is a virtio PCI device: a PCI function, a doorbell MMIO window, and
// a set of queues. The host hypervisor emulates it for its own VMs (the
// paravirtual baseline) and, under virtual-passthrough, hands the very same
// device down to a nested VM.
type Device struct {
	Fn           *pci.Function
	DoorbellBase mem.Addr
	queues       []*Queue
	// MSIX is the device's per-queue interrupt table: vector i serves
	// queue i's completions.
	MSIX *pci.MSIXTable
	// inline holds the queue slots, so they come with the device: a net
	// device has two queues and a blk device one.
	inline [2]*Queue
}

// init builds a zero Device in place with the given PCI identity and
// numQueues (at most len(inline)) queues, so NetDevice and BlkDevice
// allocate theirs with them. The doorbell window is programmed into BAR0,
// and the queue count sizes the MSI-X table.
func (d *Device) init(name string, deviceID uint16, class uint32, doorbell mem.Addr, numQueues int) error {
	fn := pci.NewFunction(name, pci.Address{}, VendorVirtio, deviceID, class)
	fn.IsVirtual = true
	fn.Config.SetBAR(0, uint32(doorbell))
	msix, err := pci.AddMSIX(fn, numQueues)
	if err != nil {
		return fmt.Errorf("virtio %s: %w", name, err)
	}
	d.Fn, d.DoorbellBase, d.MSIX = fn, doorbell, msix
	d.queues = d.inline[:numQueues]
	return nil
}

// AttachQueue wires device-side queue state for queue index qi.
func (d *Device) AttachQueue(qi int, q *Queue) error {
	if qi < 0 || qi >= len(d.queues) {
		return fmt.Errorf("virtio: queue index %d out of range", qi)
	}
	d.queues[qi] = q
	return nil
}

// Queue returns the device-side state of queue qi, or nil when unattached.
func (d *Device) Queue(qi int) *Queue {
	if qi < 0 || qi >= len(d.queues) {
		return nil
	}
	return d.queues[qi]
}

// NumQueues returns the queue count.
func (d *Device) NumQueues() int { return len(d.queues) }

// Net queue indexes per the virtio-net convention.
const (
	NetRXQueue = 0
	NetTXQueue = 1
)

// NetDevice is a virtio-net device: queue 0 receive, queue 1 transmit.
type NetDevice struct {
	*Device
	// TxFrames counts frames the backend transmitted; RxFrames counts frames
	// delivered into guest receive buffers.
	TxFrames uint64
	RxFrames uint64
}

// NewNetDevice builds a virtio-net device with its doorbell window at the
// given MMIO address. The NetDevice and its Device are one allocation.
func NewNetDevice(name string, doorbell mem.Addr) (*NetDevice, error) {
	b := new(struct {
		n NetDevice
		d Device
	})
	if err := b.d.init(name, DeviceIDNet, ClassNetwork, doorbell, 2); err != nil {
		return nil, err
	}
	b.n.Device = &b.d
	return &b.n, nil
}

// Transmit pops every published TX chain, gathers the frames through the
// device's DMA view, completes the chains, and returns the frames — the
// vhost-style backend work a doorbell kick triggers.
func (n *NetDevice) Transmit(dma DMA) ([][]byte, error) {
	q := n.Queue(NetTXQueue)
	if q == nil {
		return nil, fmt.Errorf("virtio-net %s: TX queue not attached", n.Fn.Name)
	}
	var frames [][]byte
	for {
		c, err := q.Pop()
		if err != nil {
			return frames, err
		}
		if c == nil {
			break
		}
		payload, err := c.ReadPayload(dma)
		if err != nil {
			return frames, err
		}
		frames = append(frames, payload)
		if err := q.Push(c, 0); err != nil {
			return frames, err
		}
		n.TxFrames++
	}
	return frames, nil
}

// Receive scatters a frame into the next posted receive chain. It reports
// whether a buffer was available (frames drop when the driver is slow, as on
// real NICs).
func (n *NetDevice) Receive(dma DMA, frame []byte) (bool, error) {
	q := n.Queue(NetRXQueue)
	if q == nil {
		return false, fmt.Errorf("virtio-net %s: RX queue not attached", n.Fn.Name)
	}
	c, err := q.Pop()
	if err != nil || c == nil {
		return false, err
	}
	written, err := c.WritePayload(dma, frame)
	if err != nil {
		return false, err
	}
	if err := q.Push(c, uint32(written)); err != nil {
		return false, err
	}
	n.RxFrames++
	return true, nil
}

// Block request types from the virtio specification.
const (
	BlkTIn  = 0 // read
	BlkTOut = 1 // write

	blkStatusOK = 0
	// blkHeaderSize: u32 type, u32 reserved, u64 sector.
	blkHeaderSize = 16
	// SectorSize is the virtio-blk sector unit.
	SectorSize = 512
)

// BlkDevice is a virtio-blk device with a single request queue backed by a
// disk image held in an AddressSpace.
type BlkDevice struct {
	*Device
	disk *mem.AddressSpace
	// Reads and Writes count completed requests.
	Reads, Writes uint64
}

// NewBlkDevice builds a virtio-blk device over the given backing store. The
// BlkDevice and its Device are one allocation.
func NewBlkDevice(name string, doorbell mem.Addr, disk *mem.AddressSpace) (*BlkDevice, error) {
	b := new(struct {
		b BlkDevice
		d Device
	})
	if err := b.d.init(name, DeviceIDBlock, ClassStorage, doorbell, 1); err != nil {
		return nil, err
	}
	b.b.Device, b.b.disk = &b.d, disk
	return &b.b, nil
}

// ProcessRequests pops and executes every published request chain,
// returning the number completed. Chain layout per the spec: a 16-byte
// device-readable header, data buffers, and a 1-byte device-writable status.
func (b *BlkDevice) ProcessRequests(dma DMA) (int, error) {
	q := b.Queue(0)
	if q == nil {
		return 0, fmt.Errorf("virtio-blk %s: queue not attached", b.Fn.Name)
	}
	done := 0
	for {
		c, err := q.Pop()
		if err != nil {
			return done, err
		}
		if c == nil {
			return done, nil
		}
		if err := b.execute(dma, c); err != nil {
			return done, err
		}
		done++
	}
}

func (b *BlkDevice) execute(dma DMA, c *Chain) error {
	if len(c.Descs) < 3 {
		return fmt.Errorf("virtio-blk %s: short chain (%d descriptors)", b.Fn.Name, len(c.Descs))
	}
	hdr := make([]byte, blkHeaderSize)
	if err := dma.Read(c.Descs[0].Addr, hdr); err != nil {
		return err
	}
	reqType := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	var sector uint64
	for k := 15; k >= 8; k-- {
		sector = sector<<8 | uint64(hdr[k])
	}
	offset := mem.Addr(sector * SectorSize)
	data := c.Descs[1 : len(c.Descs)-1]
	status := c.Descs[len(c.Descs)-1]
	var moved uint32
	switch reqType {
	case BlkTIn:
		for _, d := range data {
			buf := make([]byte, d.Len)
			if err := b.disk.Read(offset, buf); err != nil {
				return err
			}
			if err := dma.Write(d.Addr, buf); err != nil {
				return err
			}
			offset += mem.Addr(d.Len)
			moved += d.Len
		}
		b.Reads++
	case BlkTOut:
		for _, d := range data {
			buf := make([]byte, d.Len)
			if err := dma.Read(d.Addr, buf); err != nil {
				return err
			}
			if err := b.disk.Write(offset, buf); err != nil {
				return err
			}
			offset += mem.Addr(d.Len)
		}
		b.Writes++
	default:
		return fmt.Errorf("virtio-blk %s: unknown request type %d", b.Fn.Name, reqType)
	}
	if err := dma.Write(status.Addr, []byte{blkStatusOK}); err != nil {
		return err
	}
	return b.Queue(0).Push(c, moved+1)
}

// MakeBlkRequest encodes a request header for the driver side.
func MakeBlkRequest(reqType uint32, sector uint64) []byte {
	hdr := make([]byte, blkHeaderSize)
	hdr[0], hdr[1], hdr[2], hdr[3] = byte(reqType), byte(reqType>>8), byte(reqType>>16), byte(reqType>>24)
	for k := 0; k < 8; k++ {
		hdr[8+k] = byte(sector >> (8 * k))
	}
	return hdr
}
