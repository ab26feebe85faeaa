package hyper

import (
	"repro/internal/trace"
	"repro/internal/virtio"
)

// This file holds the virtio backend paths the pipeline's emulate, forward
// and deliver stages share: ring processing at the providing level and the
// cascade kick toward hardware.

// backendWork runs a virtual device's backend at the level that provides it:
// ring processing at that hypervisor's speed plus, for a cascaded device,
// the kick of the lower device it uses to reach hardware.
func (w *World) backendWork(v *VCPU, dev *AssignedDevice, provider int) error {
	stats := w.Host.Machine.Stats
	stats.ChargeLevel(provider, w.Costs.VirtioBackendWork)
	stats.Inc(trace.VirtioKicks)

	// Move real bytes when rings are wired up (only tests wire them);
	// workload simulations kick with empty rings and pay cost only.
	dma := dev.DMAView
	if dma == nil {
		dma = dev.VM.Memory()
	}
	if dev.Net != nil && dev.Net.Queue(virtio.NetTXQueue) != nil {
		//nvlint:ignore hotalloc ring processing runs only with wired rings, which only tests set up; workload kicks see empty rings
		if _, err := dev.Net.Transmit(dma); err != nil {
			return err
		}
	}
	if dev.Blk != nil && dev.Blk.Queue(0) != nil {
		//nvlint:ignore hotalloc ring processing runs only with wired rings, which only tests set up; workload kicks see empty rings
		if _, err := dev.Blk.ProcessRequests(dma); err != nil {
			return err
		}
	}

	if provider == 0 || dev.Lower == nil {
		// The host backend talks to the physical device directly.
		w.Host.Machine.NIC.TxFrames++
		return nil
	}
	// Cascade: the provider's backend kicks its own (lower) virtio device.
	return w.execAsLevel(v, provider, DevNotify(dev.Lower.Doorbell))
}

// HostBackendKick runs and charges the host-side backend for a
// host-provided device on behalf of an interceptor (DVH
// virtual-passthrough doorbell handling).
func (w *World) HostBackendKick(v *VCPU, dev *AssignedDevice) error {
	return w.backendWork(v, dev, 0)
}
