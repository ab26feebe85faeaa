package apic

// PIDescriptor is a posted-interrupt descriptor: the in-memory structure a
// sender fills to deliver an interrupt to a running vCPU without causing a VM
// exit on the receiving side. The paper's virtual-IPI mechanism (Section 3.3)
// keys its VCIMT entries to these descriptors so the host hypervisor can post
// directly to a nested VM's destination vCPU.
type PIDescriptor struct {
	pir vecSet // posted-interrupt requests
	// ndst is the physical CPU the notification should be sent to. It is
	// 32 bits wide, as the hardware's NDST field is, which keeps the
	// descriptor at 40 bytes.
	ndst int32
	// on is the outstanding-notification bit: set while a notification IPI is
	// in flight, suppressing duplicates.
	on bool
}

// NewPIDescriptor returns a descriptor targeting physical CPU ndst.
func NewPIDescriptor(ndst int) *PIDescriptor {
	return &PIDescriptor{ndst: int32(ndst)}
}

// Post records vector v in the PIR and sets the outstanding-notification bit.
// It reports whether a physical notification IPI must be sent (false when one
// is already outstanding, the coalescing hardware performs).
func (p *PIDescriptor) Post(v Vector) bool {
	p.pir.set(v)
	if p.on {
		return false
	}
	p.on = true
	return true
}

// Pending reports whether any posted vectors await sync.
func (p *PIDescriptor) Pending() bool { return !p.pir.empty() }

// Sync drains every posted vector into the target LAPIC's IRR and clears the
// outstanding-notification bit — what the CPU (or the hypervisor, when the
// vCPU was not running) does upon receiving the notification.
func (p *PIDescriptor) Sync(l *LAPIC) int {
	n := 0
	for {
		v, ok := p.pir.highest()
		if !ok {
			break
		}
		p.pir.clear(v)
		l.Deliver(v)
		n++
	}
	p.on = false
	return n
}

// NDst returns the physical CPU notifications target.
func (p *PIDescriptor) NDst() int { return int(p.ndst) }
