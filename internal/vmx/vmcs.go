package vmx

// Field is an encoded VMCS field identifier. The encodings follow the Intel
// SDM appendix B style (width/type packed into the number) but only the
// fields the simulator actually consults are defined.
type Field uint32

const (
	// Control fields.
	FieldPinBasedControls   Field = 0x4000
	FieldProcBasedControls  Field = 0x4002
	FieldProcBasedControls2 Field = 0x401e
	FieldProcBasedControls3 Field = 0x2034 // tertiary controls; DVH bits live here
	FieldExceptionBitmap    Field = 0x4004
	FieldVMExitControls     Field = 0x400c
	FieldVMEntryControls    Field = 0x4012
	FieldVMEntryIntrInfo    Field = 0x4016
	FieldTSCOffset          Field = 0x2010
	FieldEPTPointer         Field = 0x201a
	FieldVirtualAPICAddr    Field = 0x2012
	FieldAPICAccessAddr     Field = 0x2014
	FieldPostedIntrDesc     Field = 0x2016
	FieldVMCSLinkPointer    Field = 0x2800
	// FieldVCIMTAR is the paper's new virtual-CPU interrupt mapping table
	// address register (Section 3.3), modeled as a VMCS control field so
	// intervening hypervisors see it as ordinary virtual hardware state.
	FieldVCIMTAR Field = 0x2036

	// Read-only exit information fields.
	FieldVMExitReason      Field = 0x4402
	FieldExitQualification Field = 0x6400
	FieldGuestLinearAddr   Field = 0x640a
	FieldGuestPhysicalAddr Field = 0x2400
	FieldVMExitIntrInfo    Field = 0x4404
	FieldVMInstructionInfo Field = 0x440e

	// Guest-state fields (a representative subset; the simulator moves these
	// on every emulated world switch).
	FieldGuestRIP              Field = 0x681e
	FieldGuestRSP              Field = 0x681c
	FieldGuestRFLAGS           Field = 0x6820
	FieldGuestCR0              Field = 0x6800
	FieldGuestCR3              Field = 0x6802
	FieldGuestCR4              Field = 0x6804
	FieldGuestInterruptibility Field = 0x4824
	FieldGuestActivityState    Field = 0x4826

	// Host-state fields.
	FieldHostRIP Field = 0x6c16
	FieldHostRSP Field = 0x6c14
	FieldHostCR3 Field = 0x6c02
)

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
	fields  map[Field]uint64
	current bool // loaded via VMPTRLD
}

// NewVMCS returns an empty VMCS.
func NewVMCS() *VMCS {
	return &VMCS{fields: make(map[Field]uint64, 32)}
}

// Read returns the value of an encoded field; absent fields read as zero,
// matching a VMCLEARed structure.
func (v *VMCS) Read(f Field) uint64 { return v.fields[f] }

// Write stores an encoded field value.
func (v *VMCS) Write(f Field, val uint64) { v.fields[f] = val }

// SetControl ors bits into a control field.
func (v *VMCS) SetControl(f Field, bits uint64) { v.fields[f] |= bits }

// ClearControl removes bits from a control field.
func (v *VMCS) ClearControl(f Field, bits uint64) { v.fields[f] &^= bits }

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
		v.fields[FieldVMCSLinkPointer] = 1
	} else {
		v.fields[FieldVMCSLinkPointer] = ^uint64(0)
	}
}

// CopyGuestState copies the guest-state fields from src, the work a host
// hypervisor performs when merging a guest hypervisor's VMCS into the one it
// runs the nested VM with ("vmcs02" construction in KVM terms).
func (v *VMCS) CopyGuestState(src *VMCS) int {
	n := 0
	for _, f := range guestStateFields {
		if val, ok := src.fields[f]; ok {
			v.fields[f] = val
			n++
		}
	}
	return n
}

var guestStateFields = []Field{
	FieldGuestRIP, FieldGuestRSP, FieldGuestRFLAGS,
	FieldGuestCR0, FieldGuestCR3, FieldGuestCR4,
	FieldGuestInterruptibility, FieldGuestActivityState,
}

// TSCOffset returns the signed TSC offset control.
func (v *VMCS) TSCOffset() int64 { return int64(v.fields[FieldTSCOffset]) }

// SetTSCOffset stores the signed TSC offset control.
func (v *VMCS) SetTSCOffset(off int64) { v.fields[FieldTSCOffset] = uint64(off) }
