package check_test

import (
	"fmt"
	"testing"

	"repro/internal/apic"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/hyperv"
	"repro/internal/trace"
	"repro/internal/vmx"
	"repro/internal/workload"
	"repro/internal/xen"
)

// armCounter is an InvariantChecker that counts DVH virtual-timer arms and
// checks nothing else.
type armCounter struct{ arms int }

func (c *armCounter) TimerArmed(*hyper.VCPU, uint64) { c.arms++ }

// vcpuState is the part of one vCPU a declined TryHandle must not touch.
type vcpuState struct {
	v     *hyper.VCPU
	lapic apic.LAPIC
	pid   apic.PIDescriptor
	vmcs  vmx.VMCS
	idle  bool
}

// engineState is everything a declined TryHandle must leave as it found it:
// the stats sink, every vCPU of the stack, and the timer arms.
type engineState struct {
	stats trace.Stats
	vcpus []vcpuState
	arms  int
}

// capture overwrites s with the stack's current state, reusing its buffer.
func (s *engineState) capture(st *experiment.Stack, c *armCounter) {
	s.stats = *st.Machine.Stats
	s.vcpus = s.vcpus[:0]
	for _, vm := range st.VMs {
		for _, v := range vm.VCPUs {
			s.vcpus = append(s.vcpus, vcpuState{v, *v.LAPIC, *v.PID, *v.VMCS, v.Idle})
		}
	}
	s.arms = c.arms
}

// diff names the first difference between two captures, or returns "".
func (s *engineState) diff(o *engineState) string {
	if s.stats != o.stats {
		return "Machine.Stats"
	}
	if s.arms != o.arms {
		return fmt.Sprintf("%d timer arm(s)", o.arms-s.arms)
	}
	for i, a := range s.vcpus {
		b := o.vcpus[i]
		switch {
		case a.lapic != b.lapic:
			return a.v.Path() + " LAPIC"
		case a.pid != b.pid:
			return a.v.Path() + " PID"
		case a.vmcs != b.vmcs:
			return a.v.Path() + " VMCS"
		case a.idle != b.idle:
			return a.v.Path() + " Idle"
		}
	}
	return ""
}

// declineWarmup touches every access class, so the probes below meet
// pending vectors, idle vCPUs, armed timers and kicked rings.
var declineWarmup = workload.Profile{
	Name: "decline-warmup", Unit: "trans/s", NativeScore: 1000, HigherIsBetter: true,
	Cores: 2, WorkCycles: 5000,
	TxKicks: 1, RxBatches: 0.5, Timers: 0.5, IPIs: 0.5, Idles: 0.5, EOIs: 1, BlkOps: 0.5,
}

// probeOps is one op of every kind for v, plus a doorbell write to each of
// its VM's devices, so DevNotify declines both on a miss and on a device
// that is not virtual-passthrough.
func probeOps(st *experiment.Stack, v *hyper.VCPU) []hyper.Op {
	dest := uint32((v.ID + 1) % len(v.VM.VCPUs))
	ops := []hyper.Op{
		hyper.Hypercall(),
		hyper.DevNotify(0),
		hyper.ProgramTimer(uint64(st.World.Now()) + 1_000_000),
		hyper.SendIPI(dest, apic.VectorCallFunc),
		hyper.Halt(),
		hyper.EOI(),
		hyper.MemTouch(0),
	}
	for _, d := range v.VM.Devices {
		ops = append(ops, hyper.DevNotify(d.Doorbell))
	}
	return ops
}

// declaredInfo is the (name, priority) pair each interceptor's package
// declares.
func declaredInfo(it hyper.Interceptor) (string, int, bool) {
	switch it.(type) {
	case *core.DVH:
		return "dvh", core.InterceptPriority, true
	case hyperv.Enlightenment:
		return "hyperv-enlightenment", hyperv.InterceptPriority, true
	case xen.Enlightenment:
		return "xen-evtchn", xen.InterceptPriority, true
	}
	return "", 0, false
}

// checkChain requires the stack's chain to hold the interceptors its spec
// registers, each reporting its package's declared (name, priority): chain
// order is part of the determinism contract, so it may not depend on
// runtime state.
func checkChain(t *testing.T, st *experiment.Stack, when string) {
	t.Helper()
	want := 0
	if st.DVH != nil {
		want++
	}
	if st.Spec.Enlightened {
		want++
	}
	chain := st.World.Interceptors()
	if len(chain) != want {
		t.Errorf("%+v %s: %d interceptors registered, want %d", st.Spec, when, len(chain), want)
	}
	for _, it := range chain {
		name, prio := it.InterceptorInfo()
		wn, wp, ok := declaredInfo(it)
		if !ok {
			t.Errorf("%+v %s: unknown interceptor %T", st.Spec, when, it)
		} else if name != wn || prio != wp {
			t.Errorf("%+v %s: %T reports (%q, %d), its package declares (%q, %d)",
				st.Spec, when, it, name, prio, wn, wp)
		}
	}
}

// TestDeclinedInterceptorsLeaveStateUnchanged holds every interceptor to the
// decline contract of paper Figure 1: an exit the host does not handle
// directly is forwarded to the guest hypervisor unchanged, so a TryHandle
// that returns (false, nil) must leave the stats sink, every vCPU's LAPIC,
// posted-interrupt descriptor, VMCS and idle flag, and the timer arms as it
// found them. It calls TryHandle directly with every op kind on every
// nested vCPU of every valid stack at depth 2-4, including interceptors the
// stack did not register, so every decline branch runs.
func TestDeclinedInterceptorsLeaveStateUnchanged(t *testing.T) {
	declines, stacks := 0, 0
	for depth := 2; depth <= experiment.MaxDepth; depth++ {
		for io := experiment.IOParavirt; io <= experiment.IODVH; io++ {
			for guest := experiment.GuestKVM; guest <= experiment.GuestHyperV; guest++ {
				for _, enl := range []bool{false, true} {
					spec := experiment.Spec{Depth: depth, IO: io, Guest: guest, Enlightened: enl}
					if spec.Validate() != nil {
						continue
					}
					stacks++
					declines += probeDeclines(t, spec)
				}
			}
		}
	}
	t.Logf("%d stacks, %d declines", stacks, declines)
	if declines == 0 {
		t.Fatal("no interceptor declined; the probes test nothing")
	}
}

// probeDeclines builds and warms one stack, then probes it (and, with DVH,
// probes it again after disabling DVH at the innermost guest hypervisor,
// which turns the registered DVH's enable-bit checks into declines). It
// returns the number of declines checked.
func probeDeclines(t *testing.T, spec experiment.Spec) int {
	t.Helper()
	st, err := experiment.Build(spec)
	if err != nil {
		t.Fatalf("Build(%+v): %v", spec, err)
	}
	checkChain(t, st, "after Build")
	r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: declineWarmup}
	if _, err := r.Run(16); err != nil {
		t.Fatalf("%+v: warm-up: %v", spec, err)
	}
	checkChain(t, st, "after warm-up")

	counter := &armCounter{}
	st.World.Check = counter
	dvh := st.DVH
	if dvh == nil {
		// Unregistered, with every feature on: its checks fall through to
		// the VMCS enable bits, which no non-DVH stack sets.
		dvh = &core.DVH{World: st.World, Features: core.FeaturesAll}
	}
	probes := []hyper.Interceptor{dvh, hyperv.Enlightenment{}, xen.Enlightenment{}}
	n := probeStack(t, st, counter, probes)
	if st.DVH != nil {
		st.DVH.DisableAt(st.Target.Owner, core.FeaturesAll)
		checkChain(t, st, "after DisableAt")
		n += probeStack(t, st, counter, probes)
	}
	return n
}

// probeStack calls every probe's TryHandle with every probe op on every vCPU
// at level 2 or deeper, comparing state around each decline.
func probeStack(t *testing.T, st *experiment.Stack, counter *armCounter, probes []hyper.Interceptor) int {
	t.Helper()
	var before, after engineState
	declines := 0
	for _, vm := range st.VMs {
		if vm.Level < 2 {
			continue
		}
		for _, v := range vm.VCPUs {
			for _, op := range probeOps(st, v) {
				for _, it := range probes {
					before.capture(st, counter)
					handled, err := it.TryHandle(st.World, v, op)
					if err != nil {
						t.Fatalf("%+v: %T.TryHandle(%s, %v): %v", st.Spec, it, v.Path(), op.Kind, err)
					}
					if handled {
						continue
					}
					declines++
					after.capture(st, counter)
					if d := before.diff(&after); d != "" {
						t.Errorf("%+v: %T declined %v on %s but changed %s",
							st.Spec, it, op.Kind, v.Path(), d)
					}
				}
			}
		}
	}
	return declines
}
