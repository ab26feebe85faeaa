package vmx

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
	"testing/quick"
)

func TestExitReasonNames(t *testing.T) {
	if ExitHLT.String() != "HLT" {
		t.Errorf("ExitHLT.String() = %q", ExitHLT.String())
	}
	if ExitVMCALL.String() != "VMCALL" {
		t.Errorf("ExitVMCALL.String() = %q", ExitVMCALL.String())
	}
	if got := ExitReason(63).String(); got != "EXIT_REASON_63" {
		t.Errorf("unnamed reason = %q", got)
	}
}

// TestExitReasonIndexBounded pins the dense reason index: Index stays in
// range for every value, and every ExitReason constant declared in
// exitreason.go is distinct, below NumReasonIndexes and named in
// reasonNames. Index clamps overflow into a shared last slot, so a reason
// past the bound, or two reasons sharing a value, would silently merge rows
// of every per-reason table — the stats tables and the plan cache alike.
func TestExitReasonIndexBounded(t *testing.T) {
	f := func(r uint16) bool {
		i := ExitReason(r).Index()
		return i >= 0 && i < NumReasonIndexes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "exitreason.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// exitreason.go is self-contained, so it type-checks on its own.
	pkg, err := new(types.Config).Check("vmx", fset, []*ast.File{file}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scope := pkg.Scope()
	reasonType := scope.Lookup("ExitReason").Type()
	seen := map[uint64]string{}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Type() != reasonType {
			continue
		}
		v, exact := constant.Uint64Val(c.Val())
		if !exact || v >= NumReasonIndexes {
			t.Errorf("%s = %s is outside the dense index space [0, %d)", name, c.Val(), NumReasonIndexes)
			continue
		}
		if prev, dup := seen[v]; dup {
			t.Errorf("%s and %s share the value %d", prev, name, v)
		}
		seen[v] = name
		if _, ok := reasonNames[ExitReason(v)]; !ok {
			t.Errorf("%s = %d has no entry in reasonNames", name, v)
		}
	}
	if len(seen) == 0 {
		t.Fatal("found no ExitReason constants in exitreason.go")
	}
}

func TestAllReasonsSortedUnique(t *testing.T) {
	rs := AllReasons()
	if len(rs) == 0 {
		t.Fatal("no reasons")
	}
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Fatalf("AllReasons not strictly increasing at %d: %v", i, rs)
		}
	}
}

// TestFieldEncodings pins the encoding table: every field's Encoding is its
// SDM appendix B encoding, the table below covers every field, and no two
// fields share an encoding.
func TestFieldEncodings(t *testing.T) {
	want := []struct {
		f   Field
		enc uint32
	}{
		{FieldPinBasedControls, 0x4000},
		{FieldProcBasedControls, 0x4002},
		{FieldProcBasedControls2, 0x401e},
		{FieldProcBasedControls3, 0x2034},
		{FieldExceptionBitmap, 0x4004},
		{FieldVMExitControls, 0x400c},
		{FieldVMEntryControls, 0x4012},
		{FieldVMEntryIntrInfo, 0x4016},
		{FieldTSCOffset, 0x2010},
		{FieldEPTPointer, 0x201a},
		{FieldVirtualAPICAddr, 0x2012},
		{FieldAPICAccessAddr, 0x2014},
		{FieldPostedIntrDesc, 0x2016},
		{FieldVMCSLinkPointer, 0x2800},
		{FieldVCIMTAR, 0x2036},
		{FieldVMExitReason, 0x4402},
		{FieldExitQualification, 0x6400},
		{FieldGuestLinearAddr, 0x640a},
		{FieldGuestPhysicalAddr, 0x2400},
		{FieldVMExitIntrInfo, 0x4404},
		{FieldVMInstructionInfo, 0x440e},
		{FieldGuestRIP, 0x681e},
		{FieldGuestRSP, 0x681c},
		{FieldGuestRFLAGS, 0x6820},
		{FieldGuestCR0, 0x6800},
		{FieldGuestCR3, 0x6802},
		{FieldGuestCR4, 0x6804},
		{FieldGuestInterruptibility, 0x4824},
		{FieldGuestActivityState, 0x4826},
		{FieldHostRIP, 0x6c16},
		{FieldHostRSP, 0x6c14},
		{FieldHostCR3, 0x6c02},
	}
	if len(want) != int(numFields) {
		t.Fatalf("table has %d fields, the VMCS %d", len(want), numFields)
	}
	fields := map[Field]bool{}
	encs := map[uint32]Field{}
	for _, w := range want {
		if got := w.f.Encoding(); got != w.enc {
			t.Errorf("field %d: Encoding() = %#x, want %#x", w.f, got, w.enc)
		}
		if fields[w.f] {
			t.Errorf("field %d listed twice", w.f)
		}
		fields[w.f] = true
	}
	for f := Field(0); f < numFields; f++ {
		if prev, dup := encs[f.Encoding()]; dup {
			t.Errorf("fields %d and %d share the encoding %#x", prev, f, f.Encoding())
		}
		encs[f.Encoding()] = f
	}
}

func TestVMCSReadWrite(t *testing.T) {
	v := NewVMCS()
	if v.Read(FieldGuestRIP) != 0 {
		t.Fatal("unwritten field should read zero")
	}
	v.Write(FieldGuestRIP, 0xdeadbeef)
	if v.Read(FieldGuestRIP) != 0xdeadbeef {
		t.Fatal("field did not round-trip")
	}
}

func TestVMCSControls(t *testing.T) {
	v := NewVMCS()
	v.SetControl(FieldProcBasedControls, ProcHLTExiting|ProcUseTSCOffsetting)
	if !v.ControlSet(FieldProcBasedControls, ProcHLTExiting) {
		t.Fatal("HLT exiting not set")
	}
	if v.ControlSet(FieldProcBasedControls, ProcMWAITExiting) {
		t.Fatal("MWAIT exiting unexpectedly set")
	}
	v.ClearControl(FieldProcBasedControls, ProcHLTExiting)
	if v.ControlSet(FieldProcBasedControls, ProcHLTExiting) {
		t.Fatal("HLT exiting still set after clear")
	}
	if !v.ControlSet(FieldProcBasedControls, ProcUseTSCOffsetting) {
		t.Fatal("clear removed unrelated bit")
	}
}

func TestVMCSDVHControlBits(t *testing.T) {
	// The paper's new bits: a guest hypervisor enables the virtual timer and
	// virtual IPI for its nested VM via the VM execution control register,
	// which the host hypervisor can read.
	v := NewVMCS()
	v.SetControl(FieldProcBasedControls3, Proc3VirtualTimerEnable)
	if !v.ControlSet(FieldProcBasedControls3, Proc3VirtualTimerEnable) {
		t.Fatal("virtual timer enable bit lost")
	}
	if v.ControlSet(FieldProcBasedControls3, Proc3VirtualIPIEnable) {
		t.Fatal("virtual IPI bit should be independent")
	}
}

func TestVMCSClearLoad(t *testing.T) {
	v := NewVMCS()
	if v.Current() {
		t.Fatal("fresh VMCS should not be current")
	}
	v.Load()
	if !v.Current() {
		t.Fatal("Load did not make the VMCS current")
	}
	v.Write(FieldGuestRSP, 42)
	v.Clear()
	if v.Current() {
		t.Fatal("Clear should reset current state")
	}
	if v.Read(FieldGuestRSP) != 42 {
		t.Fatal("Clear should preserve field contents (in-memory region)")
	}
}

func TestVMCSShadowLink(t *testing.T) {
	v := NewVMCS()
	v.LinkShadow(true)
	if v.Read(FieldVMCSLinkPointer) != 1 {
		t.Fatal("shadow link not recorded")
	}
	v.LinkShadow(false)
	if v.Read(FieldVMCSLinkPointer) != ^uint64(0) {
		t.Fatal("unlinked shadow pointer should read all-ones")
	}
}

func TestVMCSCopyGuestState(t *testing.T) {
	src, dst := NewVMCS(), NewVMCS()
	src.Write(FieldGuestRIP, 1)
	src.Write(FieldGuestRSP, 2)
	src.Write(FieldGuestCR3, 3)
	src.Write(FieldTSCOffset, 99) // not guest state; must not copy
	n := dst.CopyGuestState(src)
	if n != 3 {
		t.Fatalf("copied %d fields, want 3", n)
	}
	if dst.Read(FieldGuestRIP) != 1 || dst.Read(FieldGuestCR3) != 3 {
		t.Fatal("guest state not copied")
	}
	if dst.Read(FieldTSCOffset) != 0 {
		t.Fatal("control field leaked into guest-state copy")
	}
}

func TestVMCSTSCOffsetSigned(t *testing.T) {
	v := NewVMCS()
	v.SetTSCOffset(-5000)
	if v.TSCOffset() != -5000 {
		t.Fatalf("TSC offset = %d, want -5000", v.TSCOffset())
	}
}

func TestCapsHasWithWithout(t *testing.T) {
	c := HardwareCaps
	if !c.Has(CapVMX | CapEPT | CapVMCSShadowing) {
		t.Fatal("hardware caps missing basics")
	}
	if c.Has(CapVirtualTimer) {
		t.Fatal("raw hardware should not advertise DVH virtual timers")
	}
	c = c.With(CapVirtualTimer | CapVirtualIPI)
	if !c.Has(CapVirtualTimer) || !c.Has(CapVirtualIPI) {
		t.Fatal("With did not add DVH caps")
	}
	c = c.Without(CapSRIOV)
	if c.Has(CapSRIOV) {
		t.Fatal("Without did not remove SR-IOV")
	}
}

func TestCapsString(t *testing.T) {
	if Caps(0).String() != "none" {
		t.Fatalf("empty caps = %q", Caps(0).String())
	}
	s := (CapVMX | CapVirtualIPI).String()
	if s != "VMX|DVH_VIRTUAL_IPI" {
		t.Fatalf("caps string = %q", s)
	}
}

func TestCapsProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		ca, cb := Caps(a), Caps(b)
		return ca.With(cb).Has(cb) && !ca.Without(cb).Has(cb) || cb == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
