package check_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/apic"
	"repro/internal/check"
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
// Its k-fold arm splits the stream into a prefix and a period and takes k
// from the first byte: the prefix then k+2 periods, observed one sample at a
// time, must equal the prefix and two periods plus k times the last period's
// delta (Histogram.AddRepeats), min and max included.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 255, 255, 255, 255})
	f.Add(binary.LittleEndian.AppendUint32(nil, 1575))
	f.Fuzz(func(t *testing.T, data []byte) {
		var k uint64
		if len(data) > 0 {
			k = uint64(data[0] % 8)
		}
		var h trace.Histogram
		var samples []sim.Cycles
		n := uint64(0)
		for len(data) >= 4 {
			c := sim.Cycles(binary.LittleEndian.Uint32(data))
			h.Observe(c)
			samples = append(samples, c)
			data = data[4:]
			n++
		}

		prefix, period := samples[:len(samples)/2], samples[len(samples)/2:]
		var each, folded, before trace.Histogram
		for _, c := range prefix {
			each.Observe(c)
			folded.Observe(c)
		}
		for range k + 2 {
			for _, c := range period {
				each.Observe(c)
			}
		}
		for range 2 {
			before = folded
			for _, c := range period {
				folded.Observe(c)
			}
		}
		after := folded
		folded.AddRepeats(&before, &after, k)
		if each != folded {
			t.Fatalf("%d samples then %d repeats of %d: one at a time %s, k-fold add %s",
				len(prefix), k+2, len(period), each.String(), folded.String())
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
		l := apic.NewLAPIC()
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
				t.Fatalf("field %#x: left fold %#x != right fold %#x", fl.Encoding(), l, r)
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
		c := check.Attach(st.World)
		if err := migrate.RestoreSnapshot(st.Target, st.DVH, data); err != nil {
			return
		}
		if err := c.Finish(); err != nil {
			t.Fatalf("restore accepted a blob that violates invariants: %v", err)
		}
	})
}

// noShortPeriod are rates whose carries repeat only past the periodic
// shortcut's search window (0.01, every 100 transactions) or show no period
// up to 100 in 1,200 transactions (1/π, √2-1). 1/3 and 1/7 would not do:
// their floating-point carries repeat every 3 and 7 transactions.
var noShortPeriod = []float64{0.01, 1 / math.Pi, math.Sqrt2 - 1}

// stackCellApp decodes FuzzStackCell's workload bytes, zero-padded to 12:
// seven op rates in steps of 0.05 up to 10; a byte whose low three bits pick
// an op class (0: none, 1-7: class 0-6) and whose high bits pick the
// noShortPeriod rate it gets; the core count, 1 to 4; the run length in
// [1, 2000]; and the spec's Enlightened bit and DVH features.
func stackCellApp(spec *experiment.Spec, app []byte) (workload.Profile, int) {
	var b [12]byte
	copy(b[:], app)
	var rates [7]float64
	for i := range rates {
		rates[i] = float64(b[i]%201) * 0.05
	}
	if c := b[7] % 8; c > 0 {
		rates[c-1] = noShortPeriod[int(b[7]/8)%len(noShortPeriod)]
	}
	spec.Enlightened = b[11]&1 != 0
	spec.Features = core.Features(b[11]>>1) & core.FeaturesAll
	p := workload.Profile{Name: "fuzz", Unit: "trans/s", NativeScore: 1000, HigherIsBetter: true,
		Cores: 1 + int(b[8])%4, WorkCycles: 50_000,
		TxKicks: rates[0], RxBatches: rates[1], Timers: rates[2], IPIs: rates[3],
		Idles: rates[4], EOIs: rates[5], BlkOps: rates[6]}
	return p, 1 + int(binary.LittleEndian.Uint16(b[9:]))%2000
}

// FuzzStackCell samples the experiment configuration space. Its micro arm
// runs the microbenchmarks under the checker: any buildable cell must run to
// completion with zero invariant violations. Its workload arm runs a decoded
// access mix (stackCellApp) through Runner.RunPeriodic and through
// Runner.Run on two fresh Builds, each with a fresh StageStats, and requires
// equal Results, latency histogram and breakdown included, and equal stage
// tables.
func FuzzStackCell(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), uint8(16), []byte{})
	f.Add(uint8(3), uint8(0), uint8(1), uint8(8), []byte{20, 20, 10, 0, 14, 40, 8, 0, 0, 0xb0, 0x04, 0})
	f.Fuzz(func(t *testing.T, depth, io, guest, iters uint8, app []byte) {
		spec := experiment.Spec{
			Depth: 1 + int(depth)%4,
			IO:    experiment.IOMode(io) % 4,
			Guest: experiment.GuestKind(guest) % 3,
		}
		p, n := stackCellApp(&spec, app)
		st, err := experiment.Build(spec)
		if err != nil {
			// Invalid cells (e.g. DVH at depth 1) must be rejected, not built.
			return
		}
		c := check.Attach(st.World)
		for _, m := range workload.Micros() {
			if _, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, 1+int(iters)%16); err != nil {
				t.Fatalf("%+v: micro %v: %v", spec, m, err)
			}
		}
		if err := c.Finish(); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}

		run := func(periodic bool) (workload.Result, hyper.StageStats, int) {
			st, err := experiment.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			var stages hyper.StageStats
			st.World.Stages = &stages
			r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
			var res workload.Result
			simulated := n
			if periodic {
				res, simulated, err = r.RunPeriodic(n)
			} else {
				res, err = r.Run(n)
			}
			if err != nil {
				t.Fatalf("%+v: %+v: %v", spec, p, err)
			}
			return res, stages, simulated
		}
		got, gotStages, simulated := run(true)
		want, wantStages, _ := run(false)
		if !reflect.DeepEqual(got, want) || gotStages != wantStages {
			t.Fatalf("%+v: %+v, n=%d (%d simulated): RunPeriodic differs from Run:\n got %+v\nwant %+v\n--- shortcut stages ---\n%s--- Run stages ---\n%s",
				spec, p, n, simulated, got, want, gotStages.String(), wantStages.String())
		}
	})
}

// Plan-cache fuzz steps. Each step is two input bytes, an opcode (mod
// pcNumSteps) and an argument; the first group crosses a World boundary,
// the second changes a plan input or the topology mid-run.
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
	pcToggleTracer
	pcCreateVM
	pcNumSteps
)

// planCacheStep applies one decoded step to a stack whose timeline recorder
// is rec, and returns the cycles the boundary charged (0 for mutations) and
// its error, which only Execute can return.
func planCacheStep(st *experiment.Stack, rec *trace.Recorder, op, arg byte) (sim.Cycles, error) {
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
		return w.DeliverTimerIRQ(v), nil
	case pcDeviceIRQ:
		return w.DeliverDeviceIRQ(st.Net, v), nil
	case pcDeviceRX:
		return w.DeviceRX(st.Net, v), nil
	case pcWake:
		return w.WakeIfIdle(v), nil
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
	case pcToggleTracer:
		// A traced World walks every tree live and an untraced one replays,
		// so the toggle switches the cached World between the two; plans
		// warmed before an attach must still be valid after the detach.
		if w.Tracer != nil {
			w.Tracer = nil
		} else {
			w.Tracer = rec
		}
	case pcCreateVM:
		// A hypervisor creates a VM beside its guests: guest hypervisor
		// arg>>1 on an odd argument, else the target's owner. It changes
		// no stack a plan pins, so warm plans keep replaying, and its vCPU 0
		// shares the target vCPU 0's CPU, so the creator's scheduler can
		// switch to it.
		creator := st.Target.Owner
		if hosts := st.VMs[:len(st.VMs)-1]; arg&1 != 0 && len(hosts) > 0 {
			creator = hosts[int(arg>>1)%len(hosts)].GuestHyp
		}
		_, err := creator.CreateVM(hyper.VMConfig{Name: "sibling", VCPUs: 1, MemBytes: 64 << 20})
		return 0, err
	}
	return 0, nil
}

// planCacheMaxSteps bounds one input's sequence so a depth-4 stack running
// the live recursion stays fast enough to fuzz.
const planCacheMaxSteps = 48

// planCacheSeeds returns FuzzPlanCache's seed inputs, in seed order: each is
// three spec bytes (depth, I/O mode, guest) and then its steps.
// TestPlanCacheSeedsReplay holds every one to replaying plans.
func planCacheSeeds() [][]byte {
	steps := func(spec []byte, ops ...byte) []byte { return append(spec, ops...) }
	// One World's compile scratch across keys at depth 4: forward plans for
	// three reasons (VMCALL, MSR write, APIC access), an injection plan and
	// a cascade plan. Then the L2 guest hypervisor turns Xen, which moves
	// no generation and changes the level-3 subtrees every one of those
	// plans merges, and the same steps compile again; then VMCS shadowing
	// goes off, which changes the level-2 and level-3 subtrees, and they
	// compile a third time. A subtree memo that outlived a compile, or was
	// emptied only when a generation moved, would replay the old subtrees.
	round := []byte{pcHypercall, 0, pcProgramTimer, 1, pcSendIPI, 0x10, pcTimerIRQ, 0, pcDeviceRX, 0}
	scratch := steps([]byte{3, 0, 0}, round...)
	scratch = steps(steps(scratch, pcSwapPersonality, 0x10), round...)
	scratch = steps(steps(scratch, pcToggleShadowing, 0), round...)
	return [][]byte{
		// Warm forward, injection, cascade and wake plans at L3, then swap
		// the L1 personality and toggle VMCS shadowing under them.
		steps([]byte{2, 0, 0},
			pcHypercall, 0, pcHypercall, 0, pcTimerIRQ, 0, pcTimerIRQ, 0, pcDeviceRX, 0, pcDeviceRX, 0,
			pcHalt, 1, pcSendIPI, 0x10, pcSwapPersonality, 0x10, pcHypercall, 0, pcTimerIRQ, 0,
			pcToggleShadowing, 0, pcHypercall, 0, pcDeviceRX, 0, pcSetCosts, 7, pcHypercall, 0),
		// Full DVH at L2 with a Xen guest: interceptor-claimed exits,
		// virtual idle wakes, then DVH features withdrawn at the guest
		// hypervisor.
		steps([]byte{1, 3, 1},
			pcProgramTimer, 3, pcHalt, 0, pcTimerIRQ, 0, pcDevNotify, 0, pcDeviceIRQ, 0, pcEOI, 0,
			pcDisableDVH, 0xfc, pcHalt, 0, pcTimerIRQ, 0, pcWake, 0, pcDevNotify, 0, pcHypercall, 0),
		// A depth-4 stack, the deepest subtree merges: warm untraced, toggle
		// VMCS shadowing and swap the L3 personality under the warm plans,
		// then attach the tracer, which walks live, across another shadowing
		// toggle.
		steps([]byte{3, 0, 0},
			pcHypercall, 0, pcTimerIRQ, 0, pcToggleShadowing, 0, pcHypercall, 0,
			pcSwapPersonality, 0x11, pcHypercall, 0, pcTimerIRQ, 0, pcToggleTracer, 0, pcHypercall, 0,
			pcToggleShadowing, 0, pcHypercall, 0, pcTimerIRQ, 0),
		// Forward, injection, cascade and wake plans warmed untraced at L3,
		// then an attach, then the same boundaries again, walked live.
		steps([]byte{2, 0, 0},
			pcHypercall, 0, pcTimerIRQ, 0, pcDeviceRX, 0, pcHalt, 1, pcSendIPI, 0x10,
			pcHalt, 1, pcWake, 1, pcToggleTracer, 0, pcHypercall, 0, pcTimerIRQ, 0, pcDeviceRX, 0,
			pcHalt, 1, pcSendIPI, 0x10, pcHalt, 1, pcWake, 1),
		scratch,
		// A sibling VM at L2: forward and injection plans warmed, then the
		// L1 hypervisor creates a sibling of the target, which moves no
		// generation, and the same boundaries replay. Target vCPU 0 then
		// halts twice, with a wake between: the L1 scheduler has the
		// sibling to switch to, so the scheduler-switch plan compiles on
		// the first halt and replays on the second.
		steps([]byte{1, 0, 0},
			pcHypercall, 0, pcTimerIRQ, 0, pcCreateVM, 0, pcHypercall, 0, pcTimerIRQ, 0,
			pcHalt, 0, pcWake, 0, pcHalt, 0, pcWake, 0),
		// seed-dvh-ipi-disabled-at-l2, once a corpus file ("770M1r0"): full
		// DVH at depth 4, the L2 hypervisor withdraws DVH features (argument
		// '1'), then the target sends an IPI, which the recursive-DVH VCIMT
		// bug failed (DESIGN.md §7.3).
		steps([]byte{'7', '7', '0'}, pcDisableDVH, '1', pcSendIPI, '0'),
		// seed-viommu-after-warm, once a corpus file: forward, injection and
		// cascade plans warmed at L2, then a mid-run vIOMMU grant gives the
		// L1 VM posting, which moves the plan generation, and the same
		// boundaries run again. No plan reads a guest hypervisor's
		// capability word, so the seed passes without that bump too:
		// TestForwardPlanInvalidation/viommu-caps and nvlint's cachegen
		// rule fail a ProvideVIOMMU that skips it (DESIGN.md §13.1).
		steps([]byte{1, 0, 0},
			pcHypercall, 0, pcHypercall, 0, pcTimerIRQ, 0, pcTimerIRQ, 0, pcDeviceRX, 0, pcDeviceIRQ, 0,
			pcProvideVIOMMU, 0x80, pcHypercall, 0, pcTimerIRQ, 0, pcDeviceRX, 0, pcDeviceIRQ, 0),
		// Full DVH at L3, and the L1 hypervisor creates a second VM. A
		// DisableAt of no feature re-runs the control setup, so the L1
		// hypervisor, now with two guests, traps HLT while the L2 one still
		// yields it. The target halts, and the L1 hypervisor owns the exit:
		// it parks the target's L2 parent and switches to the new VM. The
		// switch was once made from the target itself and failed.
		steps([]byte{2, 3, 0},
			pcHypercall, 0, pcCreateVM, 1, pcDisableDVH, 0, pcHalt, 0, pcWake, 0, pcHypercall, 0),
	}
}

// FuzzPlanCache is the differential fuzzer behind the plan cache's compile ≡
// live claim. It decodes the input into a stack spec and an interleaved
// sequence of boundary calls and mid-run plan-input mutations, runs that
// sequence on two Builds of the spec — one replaying compiled plans, one
// walking every charge tree live — and requires identical per-step costs and
// errors, every boundary step to succeed on both, identical Stats, stage
// tables and trace timelines, and zero invariant violations on both. No
// fuzzed step fails on a sound engine, so a failure is a bug even when both
// worlds share it: the recursive-DVH VCIMT bug (DESIGN.md §7.3) failed the
// same mid-exit IPI on both. Each World starts with its own StageStats
// attached and its own recorder detached, so the cached World replays from
// the first step; the tracer toggle attaches the recorder and detaches it
// again. A traced World never replays, so the timelines compare two live
// walks; the costs, Stats and stage tables compare replay with live across
// every detached span. Each World's stage tables must also hold exactly
// what its boundary steps returned: their costs summed, and one settled
// transaction per boundary step.
func FuzzPlanCache(f *testing.F) {
	for _, seed := range planCacheSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runPlanCache(t, data) })
}

// TestPlanCacheSeedsReplay runs every FuzzPlanCache seed and requires its
// cached World to compile at least one plan and replay at least one: a seed
// whose cached World does neither compares two live walks and tests nothing
// of the cache.
func TestPlanCacheSeedsReplay(t *testing.T) {
	for i, seed := range planCacheSeeds() {
		t.Run(fmt.Sprintf("seed#%d", i), func(t *testing.T) {
			w := runPlanCache(t, seed)
			if w == nil {
				t.Fatal("the seed does not decode to a stack Build accepts")
			}
			p := w.Plan
			t.Logf("compiles %d + %d, replays %d + %d (forward + delivery)", p.Compiles, p.DeliveryCompiles, p.Replays, p.DeliveryReplays)
			if p.Compiles+p.DeliveryCompiles == 0 || p.Replays+p.DeliveryReplays == 0 {
				t.Error("the cached World compiled or replayed no plan")
			}
		})
	}
}

// runPlanCache runs one FuzzPlanCache input and returns the cached World, or
// nil when the input is too short to decode or Build rejects its spec.
func runPlanCache(t *testing.T, data []byte) *hyper.World {
	if len(data) < 3 {
		return nil
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
	build := func(cache bool) (*experiment.Stack, *check.Checker) {
		st, err := experiment.Build(spec)
		if err != nil {
			return nil, nil
		}
		st.World.SetPlanCache(cache)
		st.World.Stages = &hyper.StageStats{}
		return st, check.Attach(st.World)
	}
	cached, cachedChk := build(true)
	live, liveChk := build(false)
	if cached == nil {
		// Invalid cells (e.g. DVH at depth 1) are rejected by Build.
		return nil
	}
	cachedRec, liveRec := trace.NewRecorder(1<<12), trace.NewRecorder(1<<12)
	var returned sim.Cycles
	var settled uint64
	for i := 0; i+1 < len(data); i += 2 {
		cc, cerr := planCacheStep(cached, cachedRec, data[i], data[i+1])
		lc, lerr := planCacheStep(live, liveRec, data[i], data[i+1])
		if cc != lc || fmt.Sprint(cerr) != fmt.Sprint(lerr) {
			t.Fatalf("%+v step %d (op %d arg %d): cached %v (err %v), live %v (err %v)",
				spec, i/2, data[i]%pcNumSteps, data[i+1], cc, cerr, lc, lerr)
		}
		if cerr != nil {
			t.Fatalf("%+v step %d (op %d arg %d): boundary failed: %v",
				spec, i/2, data[i]%pcNumSteps, data[i+1], cerr)
		}
		returned += cc
		if data[i]%pcNumSteps <= pcWake {
			settled++
		}
	}
	if cs, ls := cached.Machine.Stats.String(), live.Machine.Stats.String(); cs != ls {
		t.Fatalf("%+v: stats diverge:\n--- cached ---\n%s--- live ---\n%s", spec, cs, ls)
	}
	if cs, ls := cached.World.Stages, live.World.Stages; *cs != *ls {
		t.Fatalf("%+v: stage tables diverge:\n--- cached ---\n%s--- live ---\n%s", spec, cs, ls)
	}
	for _, st := range []*experiment.Stack{cached, live} {
		ss := st.World.Stages
		if ss.TotalCycles() != returned || ss.TotalSettled() != settled {
			t.Fatalf("%+v: stage tables hold %v cycles in %d transactions; the boundary steps returned %v cycles in %d successes",
				spec, ss.TotalCycles(), ss.TotalSettled(), returned, settled)
		}
	}
	if !reflect.DeepEqual(cachedRec.Events(), liveRec.Events()) {
		t.Fatalf("%+v: trace timelines diverge:\n--- cached ---\n%s--- live ---\n%s",
			spec, cachedRec.Timeline(), liveRec.Timeline())
	}
	if err := cachedChk.Finish(); err != nil {
		t.Fatalf("%+v: cached world: %v", spec, err)
	}
	if err := liveChk.Finish(); err != nil {
		t.Fatalf("%+v: live world: %v", spec, err)
	}
	return cached.World
}
