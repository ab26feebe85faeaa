// Package vmx models the x86 hardware virtualization architecture (Intel VT-x)
// at the level of detail the DVH mechanisms are defined against: VMCS
// structures with encoded fields, VM-execution controls, capability MSRs,
// shadow VMCS support, and VM-exit reasons.
//
// The model includes the paper's additions to the architecture: the DVH
// virtual-timer and virtual-IPI capability/enable bits (Sections 3.2 and 3.3)
// and the VCIMTAR register through which a guest hypervisor publishes its
// virtual-CPU interrupt mapping table.
package vmx

// ExitReason identifies why a VM exited to the hypervisor. Values follow the
// Intel SDM basic exit reason numbers where one exists; simulator-internal
// reasons occupy the high range.
type ExitReason uint16

const (
	// ExitExceptionNMI: exception or non-maskable interrupt in the guest.
	ExitExceptionNMI ExitReason = 0
	// ExitExternalInterrupt: a physical interrupt arrived while the guest ran.
	ExitExternalInterrupt ExitReason = 1
	// ExitInterruptWindow: guest became able to accept a pending interrupt.
	ExitInterruptWindow ExitReason = 7
	// ExitCPUID: guest executed CPUID.
	ExitCPUID ExitReason = 10
	// ExitHLT: guest executed HLT to enter low-power idle.
	ExitHLT ExitReason = 12
	// ExitVMCALL: hypercall from guest to its hypervisor.
	ExitVMCALL ExitReason = 18
	// ExitVMCLEAR..ExitVMXON: VMX instructions executed by a guest hypervisor.
	ExitVMCLEAR  ExitReason = 19
	ExitVMLAUNCH ExitReason = 20
	ExitVMPTRLD  ExitReason = 21
	ExitVMPTRST  ExitReason = 22
	ExitVMREAD   ExitReason = 23
	ExitVMRESUME ExitReason = 24
	ExitVMWRITE  ExitReason = 25
	ExitVMXOFF   ExitReason = 26
	ExitVMXON    ExitReason = 27
	// ExitCRAccess: control-register access.
	ExitCRAccess ExitReason = 28
	// ExitIOInstruction: port I/O.
	ExitIOInstruction ExitReason = 30
	// ExitMSRRead / ExitMSRWrite: RDMSR / WRMSR (timer programming uses WRMSR
	// of IA32_TSC_DEADLINE).
	ExitMSRRead  ExitReason = 31
	ExitMSRWrite ExitReason = 32
	// ExitAPICAccess: access to the APIC page (ICR writes when APICv register
	// virtualization is not active for the register).
	ExitAPICAccess ExitReason = 44
	// ExitEPTViolation: guest-physical access with no valid EPT mapping, the
	// exit MMIO device emulation rides on.
	ExitEPTViolation ExitReason = 48
	// ExitEPTMisconfig: EPT misconfiguration (also used for virtio doorbells
	// in real KVM; the simulator uses EPTViolation for clarity).
	ExitEPTMisconfig ExitReason = 49
	// ExitINVEPT / ExitINVVPID: TLB shootdown instructions from a guest
	// hypervisor.
	ExitINVEPT  ExitReason = 50
	ExitINVVPID ExitReason = 53
	// ExitPreemptionTimer: VMX-preemption timer fired.
	ExitPreemptionTimer ExitReason = 52
)

// numReasons bounds the dense reason index used by stats tables.
const numReasons = 64

var reasonNames = map[ExitReason]string{
	ExitExceptionNMI:      "EXCEPTION_NMI",
	ExitExternalInterrupt: "EXTERNAL_INTERRUPT",
	ExitInterruptWindow:   "INTERRUPT_WINDOW",
	ExitCPUID:             "CPUID",
	ExitHLT:               "HLT",
	ExitVMCALL:            "VMCALL",
	ExitVMCLEAR:           "VMCLEAR",
	ExitVMLAUNCH:          "VMLAUNCH",
	ExitVMPTRLD:           "VMPTRLD",
	ExitVMPTRST:           "VMPTRST",
	ExitVMREAD:            "VMREAD",
	ExitVMRESUME:          "VMRESUME",
	ExitVMWRITE:           "VMWRITE",
	ExitVMXOFF:            "VMXOFF",
	ExitVMXON:             "VMXON",
	ExitCRAccess:          "CR_ACCESS",
	ExitIOInstruction:     "IO_INSTRUCTION",
	ExitMSRRead:           "MSR_READ",
	ExitMSRWrite:          "MSR_WRITE",
	ExitAPICAccess:        "APIC_ACCESS",
	ExitEPTViolation:      "EPT_VIOLATION",
	ExitEPTMisconfig:      "EPT_MISCONFIG",
	ExitINVEPT:            "INVEPT",
	ExitINVVPID:           "INVVPID",
	ExitPreemptionTimer:   "PREEMPTION_TIMER",
}

// String returns the SDM-style name of the exit reason.
func (r ExitReason) String() string {
	if s, ok := reasonNames[r]; ok {
		return s
	}
	return "EXIT_REASON_" + itoa(uint64(r))
}

// Index returns a dense index suitable for fixed-size accounting tables.
func (r ExitReason) Index() int {
	if int(r) < numReasons {
		return int(r)
	}
	return numReasons - 1
}

// NumReasonIndexes is the size needed for a dense per-reason table.
const NumReasonIndexes = numReasons

// AllReasons lists every named exit reason, in numeric order, for reporting.
func AllReasons() []ExitReason {
	out := make([]ExitReason, 0, len(reasonNames))
	for i := ExitReason(0); i < numReasons; i++ {
		if _, ok := reasonNames[i]; ok {
			out = append(out, i)
		}
	}
	return out
}

// itoa is a minimal integer formatter so the hot path never imports fmt.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
