package check_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apic"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/hyperv"
	"repro/internal/migrate"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vmx"
	"repro/internal/workload"
	"repro/internal/xen"
)

// FuzzHistogram feeds arbitrary observation streams to trace.Histogram and
// checks its ordering and range properties, including the zero-sample edge.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 255, 255, 255, 255})
	f.Add(binary.LittleEndian.AppendUint32(nil, 1575))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h trace.Histogram
		n := uint64(0)
		for len(data) >= 4 {
			h.Observe(sim.Cycles(binary.LittleEndian.Uint32(data)))
			data = data[4:]
			n++
		}
		if h.Count() != n {
			t.Fatalf("Count() = %d after %d observations", h.Count(), n)
		}
		if n == 0 {
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				if got := h.Quantile(q); got != 0 {
					t.Fatalf("empty histogram Quantile(%v) = %v", q, got)
				}
			}
			return
		}
		prev := sim.Cycles(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("Quantile(%v) = %v < previous quantile %v", q, v, prev)
			}
			if v < h.Min() || v > h.Max() {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, h.Min(), h.Max())
			}
			prev = v
		}
		if m := h.Mean(); m < float64(h.Min()) || m > float64(h.Max()) {
			t.Fatalf("Mean() = %v outside [%v, %v]", m, h.Min(), h.Max())
		}
	})
}

// FuzzLAPIC drives a local APIC with an arbitrary operation stream and
// checks the SDM's structural invariants after every step: IRR and ISR stay
// disjoint, PPR dominates TPR, and Ack only delivers above-PPR vectors.
func FuzzLAPIC(f *testing.F) {
	f.Add([]byte{0, 236, 1, 2})
	f.Add([]byte{0, 41, 0, 253, 1, 1, 2, 2, 3, 0xe0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		l := apic.NewLAPIC(0)
		step := func() {
			irr, isr := l.IRRSnapshot(), l.ISRSnapshot()
			for i := range irr {
				if irr[i]&isr[i] != 0 {
					t.Fatalf("IRR and ISR overlap: %#x in word %d", irr[i]&isr[i], i)
				}
			}
			if l.PPR()&0xf0 < l.TPR()&0xf0 {
				t.Fatalf("PPR %#x below TPR %#x", l.PPR(), l.TPR())
			}
		}
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			switch op % 4 {
			case 0:
				l.Deliver(apic.Vector(arg))
			case 1:
				ppr := l.PPR()
				if v, ok := l.Ack(); ok {
					if uint8(v)&0xf0 <= ppr&0xf0 {
						t.Fatalf("Ack delivered vector %d at or below PPR %#x", v, ppr)
					}
					if !l.InService(v) {
						t.Fatalf("acked vector %d not in service", v)
					}
				}
			case 2:
				l.EOI()
			case 3:
				l.SetTPR(arg)
			}
			step()
		}
	})
}

// FuzzMergeChain builds three arbitrary VMCSs and checks that folding the
// nesting chain left or right produces the same vmcs02 — the associativity
// recursive virtualization relies on.
func FuzzMergeChain(f *testing.F) {
	f.Add(uint64(0x89ab), uint64(0x1), uint64(0xffff_ffff), uint64(3), uint64(0), uint64(42))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g uint64) {
		fields := []vmx.Field{
			vmx.FieldPinBasedControls, vmx.FieldProcBasedControls,
			vmx.FieldProcBasedControls2, vmx.FieldProcBasedControls3,
			vmx.FieldExceptionBitmap, vmx.FieldTSCOffset, vmx.FieldVCIMTAR,
			vmx.FieldHostRIP, vmx.FieldHostRSP, vmx.FieldHostCR3,
			vmx.FieldGuestRIP, vmx.FieldGuestRSP, vmx.FieldGuestRFLAGS,
			vmx.FieldGuestCR0, vmx.FieldGuestCR3, vmx.FieldGuestCR4,
			vmx.FieldGuestInterruptibility, vmx.FieldGuestActivityState,
		}
		seeds := []uint64{a, b, c, d, e, g}
		chain := make([]*vmx.VMCS, 3)
		for i := range chain {
			chain[i] = vmx.NewVMCS()
			for j, fl := range fields {
				// Mix the six fuzz words over the field set so every field of
				// every VMCS gets an input-dependent value.
				v := seeds[(i*len(fields)+j)%len(seeds)]
				chain[i].Write(fl, v>>(uint(j)%17)^v<<(uint(i*j)%11))
			}
		}
		left := vmx.MergeChain(chain[0], chain[1], chain[2])
		right := vmx.Merge(chain[0], vmx.Merge(chain[1], chain[2]))
		for _, fl := range fields {
			if l, r := left.Read(fl), right.Read(fl); l != r {
				t.Fatalf("field %#x: left fold %#x != right fold %#x", uint64(fl), l, r)
			}
		}
	})
}

// FuzzConfigSpace exercises the PCI capability allocator with arbitrary
// add sequences: it must never panic, never hand out overlapping ranges,
// and keep the capability list walkable after rejecting an overflow.
func FuzzConfigSpace(f *testing.F) {
	f.Add([]byte{byte(pci.CapMSIX), 12, byte(pci.CapVendor), 60})
	f.Fuzz(func(t *testing.T, seq []byte) {
		cs := pci.NewConfigSpace(0x8086, 0x10ca, 0x020000)
		type span struct{ off, size int }
		var taken []span
		added := 0
		for len(seq) >= 2 {
			id, size := pci.CapID(seq[0]), int(seq[1])
			seq = seq[2:]
			off, err := cs.AddCapability(id, size)
			if err != nil {
				continue
			}
			added++
			total := size + 2 // header bytes precede the body
			for _, s := range taken {
				if off < s.off+s.size && s.off < off+total {
					t.Fatalf("capability at %#x(+%d) overlaps earlier one at %#x(+%d)", off, total, s.off, s.size)
				}
			}
			taken = append(taken, span{off, total})
		}
		if got := len(cs.Capabilities()); got != added {
			t.Fatalf("capability walk found %d entries, %d were added", got, added)
		}
	})
}

// FuzzRestoreSnapshot mutates a valid nested-VM snapshot arbitrarily:
// restore must either succeed or fail cleanly, never panic, and a stack that
// accepted a blob must still satisfy every invariant.
func FuzzRestoreSnapshot(f *testing.F) {
	seedStack, err := experiment.Build(experiment.Spec{Depth: 2, IO: experiment.IODVH})
	if err != nil {
		f.Fatal(err)
	}
	r := workload.Runner{W: seedStack.World, VM: seedStack.Target,
		Net: seedStack.Net, Blk: seedStack.Blk, P: workload.Profiles()[0]}
	if _, err := r.Run(10); err != nil {
		f.Fatal(err)
	}
	blob, err := migrate.Snapshot(seedStack.Target, seedStack.DVH)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("NVSNAP01garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := experiment.Build(experiment.Spec{Depth: 2, IO: experiment.IODVH})
		if err != nil {
			t.Fatal(err)
		}
		c := st.AttachChecker()
		if err := migrate.RestoreSnapshot(st.Target, st.DVH, data); err != nil {
			return
		}
		if err := c.Finish(); err != nil {
			t.Fatalf("restore accepted a blob that violates invariants: %v", err)
		}
	})
}

// FuzzStackCell samples the experiment configuration space and runs the
// microbenchmarks under the checker: any buildable cell must run to
// completion with zero invariant violations.
func FuzzStackCell(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), uint8(16))
	f.Add(uint8(3), uint8(0), uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, depth, io, guest, iters uint8) {
		spec := experiment.Spec{
			Depth: 1 + int(depth)%4,
			IO:    experiment.IOMode(io) % 4,
			Guest: experiment.GuestKind(guest) % 3,
		}
		st, err := experiment.Build(spec)
		if err != nil {
			// Invalid cells (e.g. DVH at depth 1) must be rejected, not built.
			return
		}
		c := st.AttachChecker()
		for _, m := range workload.Micros() {
			if _, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, 1+int(iters)%16); err != nil {
				t.Fatalf("%+v: micro %v: %v", spec, m, err)
			}
		}
		if err := c.Finish(); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
	})
}

// Plan-cache fuzz steps. Each step is two input bytes, an opcode (mod
// pcNumSteps) and an argument; the first group crosses a World boundary,
// the second mutates a plan input mid-run.
const (
	pcHypercall = iota
	pcProgramTimer
	pcSendIPI
	pcEOI
	pcHalt
	pcDevNotify
	pcTimerIRQ
	pcDeviceIRQ
	pcDeviceRX
	pcWake
	pcSetCosts
	pcToggleShadowing
	pcProvideVIOMMU
	pcDisableDVH
	pcSwapPersonality
	pcNumSteps
)

// planCacheStep applies one decoded step to a stack and returns the cycles
// the boundary charged (0 for mutations) and its error.
func planCacheStep(st *experiment.Stack, op, arg byte) (sim.Cycles, error) {
	w := st.World
	v := st.Target.VCPUs[int(arg)%len(st.Target.VCPUs)]
	// Guest hypervisors sit at levels 1..depth-1; mutations that need one
	// are no-ops on a single-level stack.
	var gh *hyper.Hypervisor
	if hosts := st.VMs[:len(st.VMs)-1]; len(hosts) > 0 {
		gh = hosts[int(arg)%len(hosts)].GuestHyp
	}
	switch op % pcNumSteps {
	case pcHypercall:
		return w.Execute(v, hyper.Hypercall())
	case pcProgramTimer:
		return w.Execute(v, hyper.ProgramTimer(uint64(arg)*10_000))
	case pcSendIPI:
		return w.Execute(v, hyper.SendIPI(uint32(arg>>4)%uint32(len(st.Target.VCPUs)), apic.VectorReschedule))
	case pcEOI:
		return w.Execute(v, hyper.EOI())
	case pcHalt:
		return w.Execute(v, hyper.Halt())
	case pcDevNotify:
		return w.Execute(v, hyper.DevNotify(st.Net.Doorbell))
	case pcTimerIRQ:
		return w.DeliverTimerIRQ(v)
	case pcDeviceIRQ:
		return w.DeliverDeviceIRQ(st.Net, v)
	case pcDeviceRX:
		return w.DeviceRX(st.Net, v)
	case pcWake:
		return w.WakeIfIdle(v)
	case pcSetCosts:
		c := w.Costs
		switch arg % 4 {
		case 0:
			c.ReflectWork += sim.Cycles(arg)
		case 1:
			c.HwExit += sim.Cycles(arg)
		case 2:
			c.ShadowVMAccess += sim.Cycles(arg)
		default:
			c.GuestWakeWork += sim.Cycles(arg)
		}
		w.SetCosts(c)
	case pcToggleShadowing:
		if w.Host.Caps.Has(vmx.CapVMCSShadowing) {
			w.SetHostCaps(w.Host.Caps.Without(vmx.CapVMCSShadowing))
		} else {
			w.SetHostCaps(w.Host.Caps.With(vmx.CapVMCSShadowing))
		}
	case pcProvideVIOMMU:
		st.VMs[int(arg)%len(st.VMs)].ProvideVIOMMU(arg&0x80 != 0)
	case pcDisableDVH:
		if st.DVH != nil && gh != nil {
			st.DVH.DisableAt(gh, core.Features(arg>>2)&core.FeaturesAll)
		}
	case pcSwapPersonality:
		// An in-place swap moves no generation; only the plans' personality
		// pins can notice it.
		if gh != nil {
			gh.Personality = []hyper.Personality{hyper.KVM{}, xen.Xen{}, hyperv.HyperV{}}[int(arg>>4)%3]
		}
	}
	return 0, nil
}

// planCacheMaxSteps bounds one input's sequence so a depth-4 stack running
// the live recursion stays fast enough to fuzz.
const planCacheMaxSteps = 48

// FuzzPlanCache is the differential fuzzer behind the plan cache's compile ≡
// live claim. It decodes the input into a stack spec and an interleaved
// sequence of boundary calls and mid-run plan-input mutations, runs that
// sequence on two Builds of the spec — one replaying compiled plans, one
// walking every charge tree live — and requires identical per-step costs and
// errors, identical Stats and trace timelines, and zero invariant violations
// on both.
func FuzzPlanCache(f *testing.F) {
	steps := func(spec []byte, ops ...byte) []byte { return append(spec, ops...) }
	// Warm forward, injection, cascade and wake plans at L3, then swap the
	// L1 personality and toggle VMCS shadowing under them.
	f.Add(steps([]byte{2, 0, 0},
		pcHypercall, 0, pcHypercall, 0, pcTimerIRQ, 0, pcTimerIRQ, 0, pcDeviceRX, 0, pcDeviceRX, 0,
		pcHalt, 1, pcSendIPI, 0x10, pcSwapPersonality, 0x10, pcHypercall, 0, pcTimerIRQ, 0,
		pcToggleShadowing, 0, pcHypercall, 0, pcDeviceRX, 0, pcSetCosts, 7, pcHypercall, 0))
	// Full DVH at L2 with a Xen guest: interceptor-claimed exits, virtual
	// idle wakes, then DVH features withdrawn at the guest hypervisor.
	f.Add(steps([]byte{1, 3, 1},
		pcProgramTimer, 3, pcHalt, 0, pcTimerIRQ, 0, pcDevNotify, 0, pcDeviceIRQ, 0, pcEOI, 0,
		pcDisableDVH, 0xfc, pcHalt, 0, pcTimerIRQ, 0, pcWake, 0, pcDevNotify, 0, pcHypercall, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		spec := experiment.Spec{
			Depth: 1 + int(data[0])%4,
			IO:    experiment.IOMode(data[1]) % 4,
			Guest: experiment.GuestKind(data[2]) % 3,
		}
		data = data[3:]
		if len(data) > 2*planCacheMaxSteps {
			data = data[:2*planCacheMaxSteps]
		}
		build := func(cache bool) *experiment.Stack {
			st, err := experiment.Build(spec)
			if err != nil {
				return nil
			}
			st.World.SetPlanCache(cache)
			st.World.Tracer = trace.NewRecorder(1 << 12)
			st.AttachChecker()
			return st
		}
		cached, live := build(true), build(false)
		if cached == nil {
			// Invalid cells (e.g. DVH at depth 1) are rejected by Build.
			return
		}
		for i := 0; i+1 < len(data); i += 2 {
			cc, cerr := planCacheStep(cached, data[i], data[i+1])
			lc, lerr := planCacheStep(live, data[i], data[i+1])
			if cc != lc || fmt.Sprint(cerr) != fmt.Sprint(lerr) {
				t.Fatalf("%+v step %d (op %d arg %d): cached %v (err %v), live %v (err %v)",
					spec, i/2, data[i]%pcNumSteps, data[i+1], cc, cerr, lc, lerr)
			}
		}
		if cs, ls := cached.Machine.Stats.String(), live.Machine.Stats.String(); cs != ls {
			t.Fatalf("%+v: stats diverge:\n--- cached ---\n%s--- live ---\n%s", spec, cs, ls)
		}
		if !reflect.DeepEqual(cached.World.Tracer.Events(), live.World.Tracer.Events()) {
			t.Fatalf("%+v: trace timelines diverge:\n--- cached ---\n%s--- live ---\n%s",
				spec, cached.World.Tracer.Timeline(), live.World.Tracer.Timeline())
		}
		if err := cached.Checker.Finish(); err != nil {
			t.Fatalf("%+v: cached world: %v", spec, err)
		}
		if err := live.Checker.Finish(); err != nil {
			t.Fatalf("%+v: live world: %v", spec, err)
		}
	})
}
