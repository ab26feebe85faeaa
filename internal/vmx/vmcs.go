package vmx

// Field names one VMCS field. It is a dense index into the VMCS's
// fixed-offset field array, the way KVM lays out vmcs12 as a struct with an
// encoding→offset table; Encoding returns the field's Intel SDM appendix B
// encoding (width/type packed into the number). Only the fields the
// simulator actually consults are defined.
type Field uint8

const (
	// Control fields.
	FieldPinBasedControls Field = iota
	FieldProcBasedControls
	FieldProcBasedControls2
	FieldProcBasedControls3 // tertiary controls; DVH bits live here
	FieldExceptionBitmap
	FieldVMExitControls
	FieldVMEntryControls
	FieldVMEntryIntrInfo
	FieldTSCOffset
	FieldEPTPointer
	FieldVirtualAPICAddr
	FieldAPICAccessAddr
	FieldPostedIntrDesc
	FieldVMCSLinkPointer
	// FieldVCIMTAR is the paper's new virtual-CPU interrupt mapping table
	// address register (Section 3.3), modeled as a VMCS control field so
	// intervening hypervisors see it as ordinary virtual hardware state.
	FieldVCIMTAR

	// Read-only exit information fields.
	FieldVMExitReason
	FieldExitQualification
	FieldGuestLinearAddr
	FieldGuestPhysicalAddr
	FieldVMExitIntrInfo
	FieldVMInstructionInfo

	// Guest-state fields (a representative subset; the simulator moves these
	// on every emulated world switch). They are contiguous, from
	// FieldGuestRIP to FieldGuestActivityState, so CopyGuestState walks one
	// index range.
	FieldGuestRIP
	FieldGuestRSP
	FieldGuestRFLAGS
	FieldGuestCR0
	FieldGuestCR3
	FieldGuestCR4
	FieldGuestInterruptibility
	FieldGuestActivityState

	// Host-state fields.
	FieldHostRIP
	FieldHostRSP
	FieldHostCR3

	numFields
)

// The written mask has one bit per field; this fails to compile when the
// field count outgrows it.
const _ = uint32(1<<numFields - 1)

// fieldEncodings maps each field to its SDM encoding.
var fieldEncodings = [numFields]uint32{
	FieldPinBasedControls:   0x4000,
	FieldProcBasedControls:  0x4002,
	FieldProcBasedControls2: 0x401e,
	FieldProcBasedControls3: 0x2034,
	FieldExceptionBitmap:    0x4004,
	FieldVMExitControls:     0x400c,
	FieldVMEntryControls:    0x4012,
	FieldVMEntryIntrInfo:    0x4016,
	FieldTSCOffset:          0x2010,
	FieldEPTPointer:         0x201a,
	FieldVirtualAPICAddr:    0x2012,
	FieldAPICAccessAddr:     0x2014,
	FieldPostedIntrDesc:     0x2016,
	FieldVMCSLinkPointer:    0x2800,
	FieldVCIMTAR:            0x2036,

	FieldVMExitReason:      0x4402,
	FieldExitQualification: 0x6400,
	FieldGuestLinearAddr:   0x640a,
	FieldGuestPhysicalAddr: 0x2400,
	FieldVMExitIntrInfo:    0x4404,
	FieldVMInstructionInfo: 0x440e,

	FieldGuestRIP:              0x681e,
	FieldGuestRSP:              0x681c,
	FieldGuestRFLAGS:           0x6820,
	FieldGuestCR0:              0x6800,
	FieldGuestCR3:              0x6802,
	FieldGuestCR4:              0x6804,
	FieldGuestInterruptibility: 0x4824,
	FieldGuestActivityState:    0x4826,

	FieldHostRIP: 0x6c16,
	FieldHostRSP: 0x6c14,
	FieldHostCR3: 0x6c02,
}

// Encoding returns the field's SDM encoding, the number VMREAD and VMWRITE
// name it by.
func (f Field) Encoding() uint32 { return fieldEncodings[f] }

// Pin-based VM-execution control bits.
const (
	PinExternalInterruptExiting uint64 = 1 << 0
	PinNMIExiting               uint64 = 1 << 3
	PinVMXPreemptionTimer       uint64 = 1 << 6
	PinProcessPostedInterrupts  uint64 = 1 << 7
)

// Primary processor-based VM-execution control bits.
const (
	ProcHLTExiting        uint64 = 1 << 7
	ProcUseTSCOffsetting  uint64 = 1 << 3
	ProcMWAITExiting      uint64 = 1 << 10
	ProcUseIOBitmaps      uint64 = 1 << 25
	ProcUseMSRBitmaps     uint64 = 1 << 28
	ProcActivateSecondary uint64 = 1 << 31
)

// Secondary processor-based VM-execution control bits.
const (
	Proc2VirtualizeAPICAccesses uint64 = 1 << 0
	Proc2EnableEPT              uint64 = 1 << 1
	Proc2APICRegisterVirt       uint64 = 1 << 8
	Proc2VirtualIntrDelivery    uint64 = 1 << 9
	Proc2VMCSShadowing          uint64 = 1 << 14
	Proc2ActivateTertiary       uint64 = 1 << 17
)

// Tertiary ("DVH") processor-based VM-execution control bits. These are the
// paper's additions: a guest hypervisor sets them in the VMCS it maintains
// for its nested VM, and the host hypervisor — which can read that VMCS —
// honours them when the nested VM's accesses trap to it.
const (
	Proc3VirtualTimerEnable uint64 = 1 << 0 // Section 3.2, virtual LAPIC timer
	Proc3VirtualIPIEnable   uint64 = 1 << 1 // Section 3.3, virtual ICR + VCIMT
)

// ActivityState values for FieldGuestActivityState.
const (
	ActivityActive uint64 = 0
	ActivityHLT    uint64 = 1
)

// VMCS is a virtual-machine control structure: the per-vCPU state block a
// hypervisor uses to configure and run one virtual CPU. A hypervisor at level
// k maintains one VMCS per vCPU of each VM it runs; when that hypervisor is
// itself a guest, its VMREAD/VMWRITE accesses to this structure trap to the
// level below (unless a shadow VMCS elides them).
type VMCS struct {
	fields [numFields]uint64
	// written has bit f set once field f has been stored to, by any write,
	// including a ClearControl of bits that were never set. CopyGuestState
	// copies only written fields.
	written uint32
	current bool // loaded via VMPTRLD
}

// NewVMCS returns an empty VMCS.
func NewVMCS() *VMCS { return &VMCS{} }

// Read returns the value of a field; unwritten fields read as zero,
// matching a VMCLEARed structure.
func (v *VMCS) Read(f Field) uint64 { return v.fields[f] }

// Write stores a field value.
func (v *VMCS) Write(f Field, val uint64) {
	v.fields[f] = val
	v.written |= 1 << f
}

// SetControl ors bits into a control field.
func (v *VMCS) SetControl(f Field, bits uint64) { v.Write(f, v.fields[f]|bits) }

// ClearControl removes bits from a control field.
func (v *VMCS) ClearControl(f Field, bits uint64) { v.Write(f, v.fields[f]&^bits) }

// ControlSet reports whether every given bit is set in a control field.
func (v *VMCS) ControlSet(f Field, bits uint64) bool {
	return v.fields[f]&bits == bits
}

// Clear implements VMCLEAR: the structure is no longer current. Field
// contents persist, as on hardware (they live in the in-memory VMCS region).
func (v *VMCS) Clear() { v.current = false }

// Load implements VMPTRLD, making this the current VMCS.
func (v *VMCS) Load() { v.current = true }

// Current reports whether the VMCS is loaded.
func (v *VMCS) Current() bool { return v.current }

// LinkShadow attaches (linked) or detaches a shadow VMCS, so the guest
// hypervisor's VMREAD/VMWRITE accesses are satisfied in hardware, by setting
// the VMCS link pointer.
func (v *VMCS) LinkShadow(linked bool) {
	if linked {
		v.Write(FieldVMCSLinkPointer, 1)
	} else {
		v.Write(FieldVMCSLinkPointer, ^uint64(0))
	}
}

// CopyGuestState copies the guest-state fields src has written, the work a
// host hypervisor performs when merging a guest hypervisor's VMCS into the
// one it runs the nested VM with ("vmcs02" construction in KVM terms). It
// returns the number of fields copied.
func (v *VMCS) CopyGuestState(src *VMCS) int {
	n := 0
	for f := FieldGuestRIP; f <= FieldGuestActivityState; f++ {
		if src.written&(1<<f) != 0 {
			v.Write(f, src.fields[f])
			n++
		}
	}
	return n
}

// TSCOffset returns the signed TSC offset control.
func (v *VMCS) TSCOffset() int64 { return int64(v.fields[FieldTSCOffset]) }

// SetTSCOffset stores the signed TSC offset control.
func (v *VMCS) SetTSCOffset(off int64) { v.Write(FieldTSCOffset, uint64(off)) }
