// Integration tests exercising whole-stack flows across modules: real virtio
// rings driven through DVH virtual-passthrough translation chains, timers
// firing through the event engine and waking idle nested vCPUs, IPIs
// resolved through in-memory VCIMTs, and live migration moving actual bytes
// between machines while a workload churns.
package nvsim_test

import (
	"bytes"
	"testing"

	nvsim "repro"
	"repro/internal/apic"
	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/mem"
	"repro/internal/virtio"
	"repro/internal/workload"
)

// TestEndToEndVPNetworkPath drives a frame from a nested VM's driver through
// real virtqueue memory, the DVH shadow translation, and the host backend —
// then a frame back in through the RX ring — checking bytes at every hop.
func TestEndToEndVPNetworkPath(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	l2 := st.Target
	dev := st.Net
	gm := l2.Memory()

	// The nested VM's driver sets up TX and RX rings in its own memory.
	txBase := l2.MustAllocPages(4)
	txq, err := virtio.NewDriverQueue(gm, txBase, 16)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used := txq.Rings()
	dev.Net.AttachQueue(virtio.NetTXQueue, virtio.NewQueue(dev.DMAView, 16, desc, avail, used))

	rxBase := l2.MustAllocPages(4)
	rxq, err := virtio.NewDriverQueue(gm, rxBase, 16)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used = rxq.Rings()
	dev.Net.AttachQueue(virtio.NetRXQueue, virtio.NewQueue(dev.DMAView, 16, desc, avail, used))

	// TX: driver fills a frame, publishes it, kicks the doorbell. The kick
	// must be handled entirely at the host (no guest hypervisor exits).
	frame := bytes.Repeat([]byte("dvh!"), 300)
	frameAddr := l2.MustAllocPages(1)
	if err := gm.Write(frameAddr, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := txq.Submit([]virtio.Descriptor{{Addr: frameAddr, Len: uint32(len(frame))}}); err != nil {
		t.Fatal(err)
	}
	st.Machine.Stats.Reset()
	if _, err := st.World.Execute(l2.VCPUs[0], nvsim.DevNotify(dev.Doorbell)); err != nil {
		t.Fatal(err)
	}
	if st.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("VP TX kick exited to a guest hypervisor")
	}
	if dev.Net.TxFrames != 1 {
		t.Fatalf("backend transmitted %d frames", dev.Net.TxFrames)
	}
	comps, err := txq.Reap()
	if err != nil || len(comps) != 1 {
		t.Fatalf("TX completion missing: %v %v", comps, err)
	}

	// RX: driver posts a buffer; the host device scatters an inbound frame
	// into it through the shadow translation.
	rxBuf := l2.MustAllocPages(1)
	if _, err := rxq.Submit([]virtio.Descriptor{{Addr: rxBuf, Len: 2048, DeviceWrite: true}}); err != nil {
		t.Fatal(err)
	}
	inbound := []byte("inbound frame through combined vIOMMU shadow table")
	ok, err := dev.Net.Receive(dev.DMAView, inbound)
	if err != nil || !ok {
		t.Fatalf("receive failed: %v %v", ok, err)
	}
	got := make([]byte, len(inbound))
	if err := gm.Read(rxBuf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inbound) {
		t.Fatal("inbound frame bytes corrupted across the translation chain")
	}
	// And the completion interrupt reaches the vCPU without an exit.
	before := st.Machine.Stats.TotalHardwareExits()
	st.World.DeliverDeviceIRQ(dev, l2.VCPUs[0])
	if st.Machine.Stats.TotalHardwareExits() != before {
		t.Error("posted RX interrupt caused a hardware exit")
	}
	if !l2.VCPUs[0].LAPIC.Pending(dev.IRQ) {
		t.Error("RX interrupt not pending")
	}
}

// TestEndToEndBlockPath writes a sector from a nested VM through the VP blk
// device into the machine's SSD backing store and reads it back.
func TestEndToEndBlockPath(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	l2 := st.Target
	dev := st.Blk
	gm := l2.Memory()

	base := l2.MustAllocPages(4)
	dq, err := virtio.NewDriverQueue(gm, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used := dq.Rings()
	dev.Blk.AttachQueue(0, virtio.NewQueue(dev.DMAView, 8, desc, avail, used))

	hdrAddr := l2.MustAllocPages(1)
	dataAddr := l2.MustAllocPages(1)
	statusAddr := l2.MustAllocPages(1)
	payload := bytes.Repeat([]byte{0xAB}, virtio.SectorSize)
	if err := gm.Write(hdrAddr, virtio.MakeBlkRequest(virtio.BlkTOut, 77)); err != nil {
		t.Fatal(err)
	}
	if err := gm.Write(dataAddr, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := dq.Submit([]virtio.Descriptor{
		{Addr: hdrAddr, Len: 16},
		{Addr: dataAddr, Len: virtio.SectorSize},
		{Addr: statusAddr, Len: 1, DeviceWrite: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.World.Execute(l2.VCPUs[0], nvsim.DevNotify(dev.Doorbell)); err != nil {
		t.Fatal(err)
	}
	if dev.Blk.Writes != 1 {
		t.Fatalf("blk writes = %d", dev.Blk.Writes)
	}
	// The bytes must be on the machine's SSD at sector 77.
	diskBuf := make([]byte, virtio.SectorSize)
	if err := st.Machine.SSD.Backing.Read(mem.Addr(77*virtio.SectorSize), diskBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(diskBuf, payload) {
		t.Fatal("sector content did not reach the SSD backing store")
	}
}

// TestEndToEndTimerWakesIdleNestedVM programs a DVH virtual timer, halts the
// vCPU (virtual idle), advances simulated time, and observes the interrupt
// wake the vCPU through the posted path.
func TestEndToEndTimerWakesIdleNestedVM(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	v := st.Target.VCPUs[0]
	w := st.World
	deadline := uint64(w.Now()) + 100_000
	if _, err := st.World.Execute(v, nvsim.ProgramTimer(deadline)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.World.Execute(v, nvsim.Halt()); err != nil {
		t.Fatal(err)
	}
	if !v.Idle {
		t.Fatal("vCPU should be idle")
	}
	w.RunUntil(w.Now() + 50_000)
	if !v.Idle {
		t.Fatal("woke before the deadline")
	}
	w.RunUntil(w.Now() + 100_000)
	if v.Idle {
		t.Fatal("timer did not wake the vCPU")
	}
	if !v.LAPIC.Pending(apic.VectorTimer) {
		t.Fatal("timer interrupt not pending after wake")
	}
}

// TestEndToEndVirtualIPIAcrossVCPUs sends IPIs around all four nested vCPUs
// through the VCIMT and checks each delivery.
func TestEndToEndVirtualIPIAcrossVCPUs(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	st.Machine.Stats.Reset()
	vcpus := st.Target.VCPUs
	for i := range vcpus {
		dest := (i + 1) % len(vcpus)
		if _, err := st.World.Execute(vcpus[i], nvsim.SendIPI(uint32(dest), apic.VectorCallFunc)); err != nil {
			t.Fatal(err)
		}
		if !vcpus[dest].LAPIC.Pending(apic.VectorCallFunc) {
			t.Fatalf("IPI %d->%d not delivered", i, dest)
		}
		v, ok := vcpus[dest].LAPIC.Ack()
		if !ok || v != apic.VectorCallFunc {
			t.Fatalf("ack got %v %v", v, ok)
		}
		vcpus[dest].LAPIC.EOI()
	}
	if st.Machine.Stats.GuestHypervisorExits() != 0 {
		t.Error("virtual IPIs reached a guest hypervisor")
	}
	if st.Machine.Stats.Counter("dvh.vipi.sends") != uint64(len(vcpus)) {
		t.Errorf("vIPI counter = %d", st.Machine.Stats.Counter("dvh.vipi.sends"))
	}
}

// TestEndToEndWorkloadThenMigrate runs a workload on a DVH stack, then
// live-migrates the nested VM to a twin stack and verifies the memory image.
func TestEndToEndWorkloadThenMigrate(t *testing.T) {
	src, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nvsim.RunWorkload(src, "Memcached", 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead <= 1.0 || res.Overhead > 2.5 {
		t.Fatalf("Memcached under DVH = %.2fx", res.Overhead)
	}
	vp, ok := src.DVH.VPStateOf(src.Net)
	if !ok {
		t.Fatal("no VP state")
	}
	plan := &nvsim.MigrationPlan{
		VM: src.Target, Dest: dst.Target,
		VP: []*core.VPState{vp}, UseMigrationCap: true,
		Churn: nvsim.Churn{WorkingSetPages: 2048, CPUPagesPerSec: 900, DMAPagesPerSec: 500},
	}
	rep, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesSent == 0 {
		t.Fatal("no pages sent")
	}
	bad, err := plan.VerifyDest()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("%d divergent pages after migration", len(bad))
	}
	// The workload keeps running on the destination-equivalent stack.
	res2, err := nvsim.RunWorkload(dst, "Memcached", 200)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Overhead > 2.5 {
		t.Fatalf("post-migration overhead %.2fx", res2.Overhead)
	}
}

// TestParavirtCascadeMovesBytesThroughEveryLevel wires rings at both levels
// of a paravirtual stack and checks a nested TX propagates to the L1 device
// and the physical NIC counter.
func TestParavirtCascadeMovesBytesThroughEveryLevel(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IOParavirt})
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := st.VMs[0], st.VMs[1]
	l2dev := st.Net
	l1dev := l2dev.Lower
	if l1dev == nil {
		t.Fatal("no cascade lower device")
	}

	// L2 ring with a frame.
	gm2 := l2.Memory()
	q2base := l2.MustAllocPages(4)
	txq2, err := virtio.NewDriverQueue(gm2, q2base, 8)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used := txq2.Rings()
	l2dev.Net.AttachQueue(virtio.NetTXQueue, virtio.NewQueue(gm2, 8, desc, avail, used))
	frameAddr := l2.MustAllocPages(1)
	gm2.Write(frameAddr, []byte("cascade frame"))
	txq2.Submit([]virtio.Descriptor{{Addr: frameAddr, Len: 13}})

	// L1 ring (the L1 backend re-queues into its own device).
	gm1 := l1.Memory()
	q1base := l1.MustAllocPages(4)
	txq1, err := virtio.NewDriverQueue(gm1, q1base, 8)
	if err != nil {
		t.Fatal(err)
	}
	desc, avail, used = txq1.Rings()
	l1dev.Net.AttachQueue(virtio.NetTXQueue, virtio.NewQueue(gm1, 8, desc, avail, used))

	before := st.Machine.NIC.TxFrames
	if _, err := st.World.Execute(l2.VCPUs[0], nvsim.DevNotify(l2dev.Doorbell)); err != nil {
		t.Fatal(err)
	}
	if l2dev.Net.TxFrames != 1 {
		t.Fatal("L2 device did not transmit")
	}
	if st.Machine.NIC.TxFrames != before+1 {
		t.Fatal("frame never reached the physical NIC")
	}
	if st.Machine.Stats.Counter("virtio.kicks") < 2 {
		t.Fatal("cascade should involve both backends")
	}
}

// TestStatsConservation checks the accounting discipline across a busy mixed
// run: the cycles returned by operations equal the cycles recorded.
func TestStatsConservation(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IOParavirt})
	if err != nil {
		t.Fatal(err)
	}
	st.Machine.Stats.Reset()
	var returned nvsim.Cycles
	ops := []hyper.Op{
		nvsim.Hypercall(),
		nvsim.DevNotify(st.Net.Doorbell),
		nvsim.ProgramTimer(1_000_000),
		nvsim.SendIPI(1, apic.VectorReschedule),
		nvsim.Halt(),
	}
	for _, op := range ops {
		c, err := st.World.Execute(st.Target.VCPUs[0], op)
		if err != nil {
			t.Fatal(err)
		}
		returned += c
	}
	returned += st.World.WakeIfIdle(st.Target.VCPUs[0])
	recorded := st.Machine.Stats.TotalCycles()
	if recorded != returned {
		t.Fatalf("accounting leak: ops returned %v cycles, stats recorded %v", returned, recorded)
	}
}

// TestMicrobenchWorkloadConsistency cross-checks the workload layer against
// direct world execution for a nested DVH stack.
func TestMicrobenchWorkloadConsistency(t *testing.T) {
	st, err := nvsim.Build(nvsim.Spec{Depth: 2, IO: nvsim.IODVH})
	if err != nil {
		t.Fatal(err)
	}
	micro, err := workload.RunMicro(st.World, st.Target.VCPUs[0], workload.MicroDevNotify, st.Net, 4)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := st.World.Execute(st.Target.VCPUs[0], nvsim.DevNotify(st.Net.Doorbell))
	if err != nil {
		t.Fatal(err)
	}
	if micro != direct {
		t.Fatalf("microbench %v != direct %v", micro, direct)
	}
}
