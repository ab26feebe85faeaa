package hyper

import (
	"testing"

	"repro/internal/sim"
)

// stubInterceptor is a minimal chain member recording when it fires.
type stubInterceptor struct {
	name     string
	priority int
	handle   bool
	work     sim.Cycles
	log      *[]string
}

func (s *stubInterceptor) InterceptorInfo() (string, int) { return s.name, s.priority }

func (s *stubInterceptor) TryHandle(w *World, v *VCPU, op Op) (bool, sim.Cycles, error) {
	*s.log = append(*s.log, s.name)
	if !s.handle {
		return false, 0, nil
	}
	w.Host.Machine.Stats.ChargeLevel(0, s.work)
	return true, s.work, nil
}

// mustRegister registers an interceptor, failing the test on rejection.
func mustRegister(t testing.TB, w *World, i Interceptor) {
	t.Helper()
	if err := w.RegisterInterceptor(i); err != nil {
		t.Fatal(err)
	}
}

func chainNames(w *World) []string {
	var names []string
	for _, it := range w.Interceptors() {
		n, _ := it.InterceptorInfo()
		names = append(names, n)
	}
	return names
}

// TestInterceptorChainOrderDeterministic registers two interceptors in both
// possible orders and requires the consulted chain — and the actual firing
// order on a nested exit — to come out identically: (priority, name) decides,
// registration order never does. This is the determinism contract that lets
// stacks assemble their backends in any order and still produce byte-identical
// runs.
func TestInterceptorChainOrderDeterministic(t *testing.T) {
	build := func(reversed bool) (*World, *VCPU, *[]string) {
		w, vms := testStack(t, 2)
		log := &[]string{}
		early := &stubInterceptor{name: "early", priority: 10, log: log}
		late := &stubInterceptor{name: "late", priority: 90, log: log}
		if reversed {
			mustRegister(t, w, late)
			mustRegister(t, w, early)
		} else {
			mustRegister(t, w, early)
			mustRegister(t, w, late)
		}
		return w, vms[1].VCPUs[0], log
	}

	for _, reversed := range []bool{false, true} {
		w, v, log := build(reversed)
		got := chainNames(w)
		if len(got) != 2 || got[0] != "early" || got[1] != "late" {
			t.Fatalf("reversed=%v: chain order = %v, want [early late]", reversed, got)
		}
		exec(t, w, v, Hypercall())
		if len(*log) != 2 || (*log)[0] != "early" || (*log)[1] != "late" {
			t.Fatalf("reversed=%v: firing order = %v, want [early late]", reversed, *log)
		}
	}
}

// TestInterceptorTieBreakByName checks the documented tie rule: equal
// priorities order by name.
func TestInterceptorTieBreakByName(t *testing.T) {
	w, _ := testStack(t, 2)
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "zeta", priority: 50, log: log})
	mustRegister(t, w, &stubInterceptor{name: "alpha", priority: 50, log: log})
	got := chainNames(w)
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("chain order = %v, want [alpha zeta]", got)
	}
}

// TestInterceptorHandledStopsChain verifies claim semantics and accounting:
// the first interceptor to handle the exit ends the transaction at the host —
// later chain members are never consulted — and the caller's cost is the
// full direct-handling envelope: hardware exit, the declining predecessor's
// check work, dispatch, the handler's work, hardware entry.
func TestInterceptorHandledStopsChain(t *testing.T) {
	w, vms := testStack(t, 2)
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "decliner", priority: 1, log: log})
	mustRegister(t, w, &stubInterceptor{name: "handler", priority: 2, handle: true, work: 333, log: log})
	mustRegister(t, w, &stubInterceptor{name: "shadowed", priority: 3, log: log})

	v := vms[1].VCPUs[0]
	c := &w.Costs
	got := exec(t, w, v, Hypercall())
	want := c.HwExit + c.DVHCheckWork + c.HostDispatch + 333 + c.HwEntry
	if got != want {
		t.Errorf("handled-exit cost = %v, want %v", got, want)
	}
	if len(*log) != 2 || (*log)[1] != "handler" {
		t.Errorf("firing log = %v, want [decliner handler] (shadowed never consulted)", *log)
	}
	if n := w.Host.Machine.Stats.TotalHandledAt(0); n != 1 {
		t.Errorf("host handled-exit count = %d, want 1", n)
	}
}

// TestInterceptorSkippedAtLevel1 confirms the chain is a nested-VM mechanism:
// a level-1 exit never consults it (DVH provides virtual hardware to nested
// VMs; a level-1 VM already has the host's).
func TestInterceptorSkippedAtLevel1(t *testing.T) {
	w, vms := testStack(t, 1)
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "stub", priority: 1, handle: true, log: log})
	exec(t, w, vms[0].VCPUs[0], Hypercall())
	if len(*log) != 0 {
		t.Errorf("interceptor consulted for a level-1 exit: %v", *log)
	}
}

// spyChecker counts boundary frames to prove the pipeline's single settle
// point: one Begin and one End per public entry, with End receiving exactly
// the cost the caller got.
type spyChecker struct {
	begins, ends int
	lastCost     sim.Cycles
	lastErr      error
	open         int
	maxDepth     int
}

func (s *spyChecker) Begin(w *World, v *VCPU, b Boundary, op Op) int {
	s.begins++
	s.open++
	if s.open > s.maxDepth {
		s.maxDepth = s.open
	}
	return s.begins
}

func (s *spyChecker) End(token int, w *World, v *VCPU, b Boundary, op Op, cost sim.Cycles, err error) {
	s.ends++
	s.open--
	s.lastCost, s.lastErr = cost, err
}

func (s *spyChecker) TimerArmed(w *World, v *VCPU, hostDeadline uint64) {}

// TestSingleSettlePoint drives representative paths through each pipeline
// outcome — fast path, host emulation, interceptor claim, full forwarding —
// and checks every Execute produced exactly one balanced checker frame whose
// settled cost equals the caller's return value.
func TestSingleSettlePoint(t *testing.T) {
	w, vms := testStack(t, 2)
	spy := &spyChecker{}
	w.Check = spy
	v := vms[1].VCPUs[0]

	ops := []Op{EOI(), Hypercall()}
	for _, op := range ops {
		before := spy.begins
		cost := exec(t, w, v, op)
		if spy.begins != before+1 {
			t.Fatalf("%v: %d Begin frames for one Execute, want 1", op.Kind, spy.begins-before)
		}
		if spy.ends != spy.begins {
			t.Fatalf("%v: unbalanced frames: %d begins, %d ends", op.Kind, spy.begins, spy.ends)
		}
		if spy.lastCost != cost {
			t.Errorf("%v: settle reported %v to checker, caller got %v", op.Kind, spy.lastCost, cost)
		}
	}

	// An interceptor claim settles through the same single point.
	log := &[]string{}
	mustRegister(t, w, &stubInterceptor{name: "claimer", priority: 1, handle: true, work: 100, log: log})
	before := spy.begins
	cost := exec(t, w, v, Hypercall())
	if spy.begins != before+1 || spy.ends != spy.begins {
		t.Fatalf("intercepted exit: frames begin=%d end=%d (before=%d), want one balanced frame", spy.begins, spy.ends, before)
	}
	if spy.lastCost != cost {
		t.Errorf("intercepted exit: settle reported %v, caller got %v", spy.lastCost, cost)
	}
}

// TestNestedBoundariesStack verifies that a delivery boundary opened inside a
// transaction (the wake inside an IPI) stacks checker frames rather than
// merging them — the pipeline opens one transaction per public entry, nested
// entries included.
func TestNestedBoundariesStack(t *testing.T) {
	w, vms := testStack(t, 1)
	spy := &spyChecker{}
	w.Check = spy
	dest := vms[0].VCPUs[1]
	dest.Idle = true
	exec(t, w, vms[0].VCPUs[0], SendIPI(1, 0x42))
	if spy.maxDepth < 2 {
		t.Errorf("IPI-with-wake frame depth = %d, want >= 2 (Execute + WakeIfIdle)", spy.maxDepth)
	}
	if spy.begins != spy.ends {
		t.Errorf("unbalanced frames: %d begins, %d ends", spy.begins, spy.ends)
	}
}

// TestExitContextLedger exercises the per-stage cost ledger: add keeps the
// transaction total equal to the sum of its stage entries, and the total a
// forwarded exit settles is the cost its caller receives.
func TestExitContextLedger(t *testing.T) {
	var tx ExitContext
	tx.add(StageRoute, 10)
	tx.add(StageForward, 700)
	tx.add(StageForward, 300)
	if tx.ledger[StageForward] != 1000 {
		t.Errorf("forward stage = %v, want 1000", tx.ledger[StageForward])
	}
	if tx.Cost != 1010 {
		t.Errorf("ledger total = %v, want 1010", tx.Cost)
	}

	w, vms := testStack(t, 2)
	ledger, cost, err := w.ExecuteLedger(vms[1].VCPUs[0], Hypercall())
	if err != nil {
		t.Fatal(err)
	}
	var sum sim.Cycles
	for _, c := range ledger {
		sum += c
	}
	if sum != cost {
		t.Errorf("settled ledger sums to %v, caller got %v (%v)", sum, cost, ledger)
	}
	if ledger[StageRoute] == 0 || ledger[StageForward] == 0 {
		t.Errorf("forwarded L2 hypercall ledger %v lacks its route or forward entry", ledger)
	}
}

// TestSettleZeroesCostOnError pins the error contract: a transaction that
// fails after charging its ledger abandons those partial charges, and the
// caller and the checker both see (0, err). The L2 hypercall takes its
// hardware exit into L0 before the missing L1 hypervisor fails it.
func TestSettleZeroesCostOnError(t *testing.T) {
	w, vms := testStack(t, 2)
	spy := &spyChecker{}
	ss := &StageStats{}
	w.Check, w.Stages = spy, ss
	vms[0].GuestHyp = nil
	w.Host.Machine.TopoGen++ // so the L2 vCPU's cached hypervisor stack is rebuilt

	cost, err := w.Execute(vms[1].VCPUs[0], Hypercall())
	if cost != 0 || err == nil {
		t.Fatalf("Execute on a broken stack = (%v, %v), want (0, error)", cost, err)
	}
	if n := w.Host.Machine.Stats.TotalHardwareExits(); n != 1 {
		t.Fatalf("hardware exits = %d, want 1: the error must follow a ledger charge", n)
	}
	if spy.ends != 1 || spy.lastCost != 0 || spy.lastErr != err {
		t.Errorf("checker observed %d frames ending (%v, %v), want 1 ending (0, %v)", spy.ends, spy.lastCost, spy.lastErr, err)
	}
	if n := ss.TotalSettled(); n != 0 {
		t.Errorf("sink observed %d transactions of a failed call, want 0", n)
	}
}

// TestStageStringTotal keeps Stage's String in sync with the enum (nvlint's
// exhaustive rule checks the switch statically; this covers the rendered
// names).
func TestStageStringTotal(t *testing.T) {
	want := []string{"fast-path", "intercept", "route", "emulate", "forward", "deliver", "settle"}
	for i, name := range want {
		if got := Stage(i).String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", i, got, name)
		}
	}
	if int(NumStages) != len(want) {
		t.Errorf("NumStages = %d, want %d", NumStages, len(want))
	}
}

// TestAPICvEOICostModeled is the regression test for promoting the APICv EOI
// fast path's magic constant into the cost model: the default reproduces the
// calibrated 50-cycle absorbed write, and the cost is genuinely consulted —
// recalibrating the field changes what an EOI costs.
func TestAPICvEOICostModeled(t *testing.T) {
	w, vms := testStack(t, 1)
	v := vms[0].VCPUs[0]
	if w.Costs.APICvEOICost != 50 {
		t.Fatalf("default APICvEOICost = %v, want calibrated 50", w.Costs.APICvEOICost)
	}
	if got := exec(t, w, v, EOI()); got != 50 {
		t.Fatalf("EOI cost = %v, want 50", got)
	}
	guestBefore := w.Host.Machine.Stats.GuestCycles
	w.Costs.APICvEOICost = 75
	if got := exec(t, w, v, EOI()); got != 75 {
		t.Fatalf("EOI cost after recalibration = %v, want 75", got)
	}
	if delta := w.Host.Machine.Stats.GuestCycles - guestBefore; delta != 75 {
		t.Errorf("EOI charged %v guest cycles, want 75 (APICv absorbs the write; no exit)", delta)
	}
	if n := w.Host.Machine.Stats.TotalHardwareExits(); n != 0 {
		t.Errorf("EOI caused %d hardware exits, want 0", n)
	}
}
