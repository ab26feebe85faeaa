package hyper

import "repro/internal/trace"

// Scheduler is a hypervisor's round-robin vCPU scheduler over the guests it
// manages. The paper's evaluation pins every vCPU, so steady-state runs
// never migrate; the scheduler exists for the case Section 3.4's virtual-
// idle policy is about — a guest hypervisor with *multiple* nested VMs keeps
// trapping HLT precisely so it can switch to a sibling when one goes idle.
type Scheduler struct {
	h *Hypervisor
	// rr holds the round-robin cursor per CPU so repeated picks rotate
	// fairly among runnable vCPUs sharing that CPU.
	rr map[int]int

	// scratch backs candidates so the HLT exit path does not allocate a
	// fresh slice on every pick. Valid only until the next candidates call.
	scratch []*VCPU
}

// EnsureScheduler returns the hypervisor's scheduler, creating it on first
// use.
func (h *Hypervisor) EnsureScheduler() *Scheduler {
	if h.sched == nil {
		//nvlint:ignore hotalloc one-time lazy init; every later pick reuses it
		h.sched = &Scheduler{h: h, rr: make(map[int]int)}
	}
	return h.sched
}

// candidates lists the hypervisor's guest vCPUs pinned to the given CPU.
// The returned slice aliases the scheduler's scratch buffer.
func (s *Scheduler) candidates(physCPU int) []*VCPU {
	out := s.scratch[:0]
	for _, vm := range s.h.Guests {
		for _, v := range vm.VCPUs {
			if v.PhysCPU == physCPU {
				out = append(out, v) //nvlint:ignore hotalloc appends into reused scratch; warm after first pick per CPU
			}
		}
	}
	s.scratch = out
	return out
}

// PickNext chooses the next runnable vCPU on a CPU, rotating round-robin and
// skipping except (the vCPU that just blocked). It returns nil when nothing
// else is runnable — the situation where yielding HLT interposition to the
// host (virtual idle) costs the guest hypervisor nothing.
func (s *Scheduler) PickNext(physCPU int, except *VCPU) *VCPU {
	cands := s.candidates(physCPU)
	if len(cands) == 0 {
		return nil
	}
	start := s.rr[physCPU]
	for i := 0; i < len(cands); i++ {
		v := cands[(start+i)%len(cands)]
		if v == except || v.Idle {
			continue
		}
		s.rr[physCPU] = (start + i + 1) % len(cands)
		return v
	}
	return nil
}

// switchScript is the guest hypervisor's context-switch path between two of
// its nested VMs: VMCLEAR/VMPTRLD of the VMCS pair plus state save/restore.
func switchScript() Script {
	return Script{VMAccesses: 20, PrivOps: 2, SoftWork: 500, Resume: false}
}

// guestSwitch performs and charges a context switch by the hypervisor at the
// given level from one of its guests' vCPUs to another: the outgoing VMCS is
// cleared, the incoming one loaded, and its guest state restored. Its one
// caller switches from the vCPU it parked to one its scheduler picked, so
// both run under that hypervisor. The VMCS operations and scheduler
// bookkeeping stay live; the switch's charge tree — a fixed script at the
// switching level, exit-multiplied below it — replays a compiled plan in
// steady state. The stats sink's sched.switches counter counts the switches.
func (w *World) guestSwitch(level int, from, to *VCPU) {
	from.VMCS.Clear()
	to.VMCS.Load()
	to.VMCS.CopyGuestState(from.VMCS)
	w.charge(from.VM.stack, planSwitch, 0, level)
	w.Host.Machine.Stats.Inc(trace.SchedSwitches)
}
