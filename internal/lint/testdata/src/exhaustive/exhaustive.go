// Package exhaustive exercises enum-switch coverage: switches over
// module-declared enum types — including the real vmx.ExitReason imported
// from the module under test — must cover every constant or carry an
// explicit default.
package exhaustive

import "repro/internal/vmx"

// Mode is a local three-valued enum.
type Mode int

const (
	ModeOff Mode = iota
	ModeOn
	ModeAuto
)

// Describe silently drops ModeAuto.
func Describe(m Mode) string {
	switch m { // want "misses ModeAuto and has no default"
	case ModeOff:
		return "off"
	case ModeOn:
		return "on"
	}
	return "?"
}

// Covered names every value.
func Covered(m Mode) string {
	switch m {
	case ModeOff:
		return "off"
	case ModeOn:
		return "on"
	case ModeAuto:
		return "auto"
	}
	return "?"
}

// Defaulted handles the rest explicitly.
func Defaulted(m Mode) string {
	switch m {
	case ModeOn:
		return "on"
	default:
		return "other"
	}
}

// Classify covers every vmx exit reason except ExitPreemptionTimer — the
// exact hole DVH virtual timers depend on being handled.
func Classify(r vmx.ExitReason) int {
	switch r { // want "misses ExitPreemptionTimer and has no default"
	case vmx.ExitExceptionNMI, vmx.ExitExternalInterrupt, vmx.ExitInterruptWindow,
		vmx.ExitCPUID, vmx.ExitHLT, vmx.ExitVMCALL, vmx.ExitVMCLEAR,
		vmx.ExitVMLAUNCH, vmx.ExitVMPTRLD, vmx.ExitVMPTRST, vmx.ExitVMREAD,
		vmx.ExitVMRESUME, vmx.ExitVMWRITE, vmx.ExitVMXOFF, vmx.ExitVMXON,
		vmx.ExitCRAccess, vmx.ExitIOInstruction, vmx.ExitMSRRead,
		vmx.ExitMSRWrite, vmx.ExitAPICAccess, vmx.ExitEPTViolation,
		vmx.ExitEPTMisconfig, vmx.ExitINVEPT, vmx.ExitINVVPID:
		return 1
	}
	return 0
}

// Stage mirrors the exit-transaction pipeline's stage enum
// (internal/hyper/pipeline.go): a uint8 iota enum whose String switch must
// stay total as stages are added.
type Stage uint8

const (
	StageFastPath Stage = iota
	StageIntercept
	StageRoute
	StageEmulate
	StageForward
	StageDeliver
	StageSettle
)

// StageName drops the settle stage — the regression the rule must catch if a
// new stage is added without extending every stage switch.
func StageName(s Stage) string {
	switch s { // want "misses StageSettle and has no default"
	case StageFastPath:
		return "fast-path"
	case StageIntercept:
		return "intercept"
	case StageRoute:
		return "route"
	case StageEmulate:
		return "emulate"
	case StageForward:
		return "forward"
	case StageDeliver:
		return "deliver"
	}
	return "?"
}

// StageTotal covers the whole pipeline.
func StageTotal(s Stage) string {
	switch s {
	case StageFastPath, StageIntercept, StageRoute, StageEmulate,
		StageForward, StageDeliver, StageSettle:
		return "stage"
	}
	return "?"
}

// Phase has typed count sentinels: NumPhases and phaseCount are one past
// every member, so they size tables and no switch has to name them.
type Phase uint8

const (
	PhaseBoot Phase = iota
	PhaseRun
	PhaseHalt
	NumPhases
)

const phaseCount = PhaseHalt + 1

// PhaseName covers every member and needs neither sentinel.
func PhaseName(p Phase) string {
	switch p {
	case PhaseBoot:
		return "boot"
	case PhaseRun:
		return "run"
	case PhaseHalt:
		return "halt"
	}
	return "?"
}

// PhaseShort drops a genuine member, which is still reported, and the report
// names neither sentinel.
func PhaseShort(p Phase) string {
	switch p { // want "switch over lintcheck/exhaustive.Phase misses PhaseHalt and has no default"
	case PhaseBoot:
		return "b"
	case PhaseRun:
		return "r"
	}
	return "?"
}

// Slot's NumSlotsReserved is named like a sentinel but is no count: its
// value is not one past the other members', so it is a member a switch must
// cover.
type Slot int

const (
	SlotA Slot = iota
	SlotB
	NumSlotsReserved Slot = 7
)

// SlotName misses NumSlotsReserved.
func SlotName(s Slot) string {
	switch s { // want "misses NumSlotsReserved and has no default"
	case SlotA:
		return "a"
	case SlotB:
		return "b"
	}
	return "?"
}
