package vmx

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refVMCS is FuzzVMCS's reference: a VMCS backed by a map. A field is
// present in the map once any write stores to it, a ClearControl of unset
// bits included, and CopyGuestState copies only present fields.
type refVMCS struct {
	fields  map[Field]uint64
	current bool
}

func newRefVMCS() *refVMCS { return &refVMCS{fields: make(map[Field]uint64, 32)} }

func (v *refVMCS) Read(f Field) uint64               { return v.fields[f] }
func (v *refVMCS) Write(f Field, val uint64)         { v.fields[f] = val }
func (v *refVMCS) SetControl(f Field, bits uint64)   { v.fields[f] |= bits }
func (v *refVMCS) ClearControl(f Field, bits uint64) { v.fields[f] &^= bits }
func (v *refVMCS) ControlSet(f Field, bits uint64) bool {
	return v.fields[f]&bits == bits
}

func (v *refVMCS) LinkShadow(linked bool) {
	if linked {
		v.fields[FieldVMCSLinkPointer] = 1
	} else {
		v.fields[FieldVMCSLinkPointer] = ^uint64(0)
	}
}

func (v *refVMCS) CopyGuestState(src *refVMCS) int {
	n := 0
	for _, f := range []Field{
		FieldGuestRIP, FieldGuestRSP, FieldGuestRFLAGS,
		FieldGuestCR0, FieldGuestCR3, FieldGuestCR4,
		FieldGuestInterruptibility, FieldGuestActivityState,
	} {
		if val, ok := src.fields[f]; ok {
			v.fields[f] = val
			n++
		}
	}
	return n
}

func (v *refVMCS) TSCOffset() int64       { return int64(v.fields[FieldTSCOffset]) }
func (v *refVMCS) SetTSCOffset(off int64) { v.fields[FieldTSCOffset] = uint64(off) }

// refMerge is Merge over the reference.
func refMerge(vmcs01, vmcs12 *refVMCS) *refVMCS {
	out := newRefVMCS()
	out.CopyGuestState(vmcs12)
	for _, f := range []Field{FieldHostRIP, FieldHostRSP, FieldHostCR3} {
		out.Write(f, vmcs01.Read(f))
	}
	out.Write(FieldPinBasedControls, vmcs01.Read(FieldPinBasedControls)|vmcs12.Read(FieldPinBasedControls))
	out.Write(FieldProcBasedControls, vmcs01.Read(FieldProcBasedControls)|vmcs12.Read(FieldProcBasedControls))
	out.Write(FieldExceptionBitmap, vmcs01.Read(FieldExceptionBitmap)|vmcs12.Read(FieldExceptionBitmap))
	hostOnly := Proc2EnableEPT | Proc2VMCSShadowing
	agreed := (vmcs01.Read(FieldProcBasedControls2) & vmcs12.Read(FieldProcBasedControls2)) &^ hostOnly
	out.Write(FieldProcBasedControls2, vmcs01.Read(FieldProcBasedControls2)&hostOnly|agreed)
	out.Write(FieldProcBasedControls3, vmcs12.Read(FieldProcBasedControls3))
	out.Write(FieldVCIMTAR, vmcs12.Read(FieldVCIMTAR))
	out.SetTSCOffset(vmcs01.TSCOffset() + vmcs12.TSCOffset())
	out.current = true
	return out
}

// VMCS fuzz steps are vmcsStepLen-byte records: an opcode, a slot byte
// (bits 0-1 the target VMCS, bits 2-3 the source, bits 4-5 the second
// source, each taken mod vmcsSlots), a field byte (mod numFields) and a
// little-endian 64-bit value.
const (
	vmcsOpWrite = iota
	vmcsOpSetControl
	vmcsOpClearControl
	vmcsOpRead
	vmcsOpControlSet
	vmcsOpCopyGuestState
	vmcsOpLinkShadow
	vmcsOpTSCOffset
	vmcsOpMerge
	vmcsNumOps

	vmcsStepLen = 11
	vmcsSlots   = 3
)

func vmcsStep(op byte, dst, src, src2 int, f Field, val uint64) []byte {
	b := []byte{op, byte(dst | src<<2 | src2<<4), byte(f)}
	return binary.LittleEndian.AppendUint64(b, val)
}

// FuzzVMCS checks the fixed-offset VMCS against the map-backed reference
// over interleaved Write, SetControl, ClearControl, Read, ControlSet,
// CopyGuestState, LinkShadow, the TSC offset and Merge on three VMCSs.
// Every answer must match — Read, ControlSet, CopyGuestState's count,
// TSCOffset — and after every step each VMCS must match its reference in
// every field, in which fields are written (the map's key presence) and in
// Current.
func FuzzVMCS(f *testing.F) {
	// A field never written reads zero and is not copied.
	f.Add(bytes.Join([][]byte{
		vmcsStep(vmcsOpRead, 0, 0, 0, FieldGuestRIP, 0),
		vmcsStep(vmcsOpControlSet, 0, 0, 0, FieldProcBasedControls, 0),
		vmcsStep(vmcsOpCopyGuestState, 1, 0, 0, 0, 0),
	}, nil))
	// ClearControl on an unwritten guest-state field still writes it, so
	// CopyGuestState copies it and counts it.
	f.Add(bytes.Join([][]byte{
		vmcsStep(vmcsOpClearControl, 0, 0, 0, FieldGuestCR3, 0xff),
		vmcsStep(vmcsOpWrite, 1, 0, 0, FieldGuestCR3, 0x1234),
		vmcsStep(vmcsOpCopyGuestState, 1, 0, 0, 0, 0),
		vmcsStep(vmcsOpRead, 1, 0, 0, FieldGuestCR3, 0),
	}, nil))
	// A three-level chain: controls, offsets and guest state merged twice.
	f.Add(bytes.Join([][]byte{
		vmcsStep(vmcsOpSetControl, 0, 0, 0, FieldProcBasedControls2, Proc2EnableEPT|Proc2APICRegisterVirt),
		vmcsStep(vmcsOpSetControl, 1, 0, 0, FieldProcBasedControls2, Proc2APICRegisterVirt),
		vmcsStep(vmcsOpTSCOffset, 0, 0, 0, 0, uint64(1<<64-1000)),
		vmcsStep(vmcsOpTSCOffset, 1, 0, 0, 0, 500),
		vmcsStep(vmcsOpWrite, 1, 0, 0, FieldGuestRIP, 0x1111),
		vmcsStep(vmcsOpLinkShadow, 2, 0, 0, 0, 1),
		vmcsStep(vmcsOpMerge, 2, 0, 1, 0, 0),
		vmcsStep(vmcsOpMerge, 0, 2, 1, 0, 0),
		vmcsStep(vmcsOpControlSet, 0, 0, 0, FieldProcBasedControls2, Proc2APICRegisterVirt),
	}, nil))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var vs [vmcsSlots]*VMCS
		var refs [vmcsSlots]*refVMCS
		for i := range vs {
			vs[i], refs[i] = NewVMCS(), newRefVMCS()
		}
		for step := 0; len(ops) >= vmcsStepLen; step++ {
			op, s, fl := ops[0]%vmcsNumOps, ops[1], Field(ops[2])%numFields
			val := binary.LittleEndian.Uint64(ops[3:])
			ops = ops[vmcsStepLen:]
			d, a, b := int(s&3)%vmcsSlots, int(s>>2&3)%vmcsSlots, int(s>>4&3)%vmcsSlots
			v, ref := vs[d], refs[d]
			switch op {
			case vmcsOpWrite:
				v.Write(fl, val)
				ref.Write(fl, val)
			case vmcsOpSetControl:
				v.SetControl(fl, val)
				ref.SetControl(fl, val)
			case vmcsOpClearControl:
				v.ClearControl(fl, val)
				ref.ClearControl(fl, val)
			case vmcsOpRead:
				if got, want := v.Read(fl), ref.Read(fl); got != want {
					t.Fatalf("step %d: vmcs%d Read(%#x) = %#x, reference %#x", step, d, fl.Encoding(), got, want)
				}
			case vmcsOpControlSet:
				if got, want := v.ControlSet(fl, val), ref.ControlSet(fl, val); got != want {
					t.Fatalf("step %d: vmcs%d ControlSet(%#x, %#x) = %v, reference %v", step, d, fl.Encoding(), val, got, want)
				}
			case vmcsOpCopyGuestState:
				if got, want := v.CopyGuestState(vs[a]), ref.CopyGuestState(refs[a]); got != want {
					t.Fatalf("step %d: vmcs%d CopyGuestState(vmcs%d) = %d, reference %d", step, d, a, got, want)
				}
			case vmcsOpLinkShadow:
				v.LinkShadow(val&1 != 0)
				ref.LinkShadow(val&1 != 0)
			case vmcsOpTSCOffset:
				v.SetTSCOffset(int64(val))
				ref.SetTSCOffset(int64(val))
				if got, want := v.TSCOffset(), ref.TSCOffset(); got != want {
					t.Fatalf("step %d: vmcs%d TSCOffset() = %d, reference %d", step, d, got, want)
				}
			case vmcsOpMerge:
				vs[d], refs[d] = Merge(vs[a], vs[b]), refMerge(refs[a], refs[b])
			}
			for i := range vs {
				v, ref := vs[i], refs[i]
				for f := Field(0); f < numFields; f++ {
					_, present := ref.fields[f]
					if got, want := v.Read(f), ref.Read(f); got != want {
						t.Fatalf("step %d: vmcs%d field %#x = %#x, reference %#x", step, i, f.Encoding(), got, want)
					}
					if written := v.written&(1<<f) != 0; written != present {
						t.Fatalf("step %d: vmcs%d field %#x written = %v, reference present = %v", step, i, f.Encoding(), written, present)
					}
				}
				if v.Current() != ref.current {
					t.Fatalf("step %d: vmcs%d Current() = %v, reference %v", step, i, v.Current(), ref.current)
				}
			}
		}
	})
}
