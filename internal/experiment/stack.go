// Package experiment assembles the paper's evaluation configurations and
// regenerates its tables and figures: Table 3 (microbenchmark cycles),
// Figure 7 (application overhead at two virtualization levels), Figure 8
// (DVH technique breakdown), Figure 9 (three levels), Figure 10 (Xen guest
// hypervisor), and the Section 4 migration measurements.
// Entries lists them, with this repository's extensions, as one registry
// that nvbench, nvreport and the tests iterate.
package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hyper"
	"repro/internal/hyperv"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/xen"
)

// IOMode selects the I/O configuration of a stack, matching the bars of
// Figures 7, 9 and 10.
type IOMode int

const (
	// IOParavirt is the traditional virtual I/O model (virtio at every
	// level — the cascade for nested VMs).
	IOParavirt IOMode = iota
	// IOPassthrough assigns a physical SR-IOV VF through the whole chain.
	IOPassthrough
	// IODVHVP is DVH virtual-passthrough only (no other DVH mechanism, no
	// vIOMMU posted interrupts) — the paper's conservative "DVH-VP" bars.
	IODVHVP
	// IODVH is the full DVH configuration.
	IODVH
)

func (m IOMode) String() string {
	switch m {
	case IOParavirt:
		return "paravirt"
	case IOPassthrough:
		return "passthrough"
	case IODVHVP:
		return "DVH-VP"
	case IODVH:
		return "DVH"
	}
	return fmt.Sprintf("IOMode(%d)", int(m))
}

// GuestKind selects the guest hypervisor implementation.
type GuestKind int

const (
	// GuestKVM nests KVM on KVM (the paper's main configuration).
	GuestKVM GuestKind = iota
	// GuestXen nests Xen on KVM (Figure 10).
	GuestXen
	// GuestHyperV nests a Hyper-V-style hypervisor on KVM — the Windows
	// VBS/Credential Guard scenario the paper's introduction motivates
	// nested virtualization with (an extension; the paper evaluates KVM and
	// Xen guests).
	GuestHyperV
)

// guestNames are the -guest spellings of the guest hypervisors, indexed by
// GuestKind.
var guestNames = []string{GuestKVM: "kvm", GuestXen: "xen", GuestHyperV: "hyperv"}

// ParseIOMode maps an -io value (paravirt, passthrough, dvh-vp or dvh, in
// any case) to its IOMode. The error names the flag, for the CLIs that share
// it to print as is.
func ParseIOMode(name string) (IOMode, error) {
	var valid []string
	for m := IOParavirt; m <= IODVH; m++ {
		if strings.EqualFold(name, m.String()) {
			return m, nil
		}
		valid = append(valid, strings.ToLower(m.String()))
	}
	return 0, fmt.Errorf("unknown -io %q (valid: %s)", name, strings.Join(valid, ", "))
}

// ParseGuest maps a -guest value (kvm, xen or hyperv, in any case) to its
// GuestKind. The error names the flag, for the CLIs that share it to print
// as is.
func ParseGuest(name string) (GuestKind, error) {
	for g, n := range guestNames {
		if strings.EqualFold(name, n) {
			return GuestKind(g), nil
		}
	}
	return 0, fmt.Errorf("unknown -guest %q (valid: %s)", name, strings.Join(guestNames, ", "))
}

// MaxDepth is the deepest stack Build assembles: one level past the paper's
// L3 VM, where the forwarded-exit recursion is extrapolated.
const MaxDepth = 4

// Spec describes one evaluation stack.
type Spec struct {
	// Depth is the virtualization depth: 1 = VM, 2 = nested VM, 3 = L3 VM,
	// up to MaxDepth.
	Depth int
	// IO is the I/O configuration.
	IO IOMode
	// Guest selects the guest hypervisor implementation (Depth >= 2).
	Guest GuestKind
	// Features overrides the DVH feature set for IODVHVP/IODVH stacks; zero
	// means the mode's default (FeaturesVP / FeaturesAll). This is how the
	// Figure 8 increments are expressed.
	Features core.Features
	// Profile names the calibration profile (internal/profile) the stack is
	// built under; "" means the harness default (SetDefaultProfile, then
	// NVSIM_PROFILE, then xeon-silver-4114). The resolved profile supplies
	// both the cost model and the host capability word.
	Profile string
	// Enlightened registers the guest hypervisor's enlightenment interceptor
	// (hyperv.Enlightenment or xen.Enlightenment) on the world, so exits the
	// enlightenment claims are handled directly at the host instead of being
	// forwarded — the interceptor-chain path AE artifact runs exercise.
	// Requires Depth >= 2 and a non-KVM guest.
	Enlightened bool
}

// Stack is an assembled evaluation configuration.
type Stack struct {
	Spec Spec
	// Profile is the resolved calibration profile the stack was built under —
	// the provenance record CLIs stamp into headers and artifacts.
	Profile profile.Profile
	Machine *machine.Machine
	World   *hyper.World
	DVH     *core.DVH
	// VMs holds the chain, VMs[0] at level 1; Target is the innermost.
	VMs    []*hyper.VM
	Target *hyper.VM
	// Net and Blk are the target VM's devices.
	Net *hyper.AssignedDevice
	Blk *hyper.AssignedDevice
}

// Build assembles a stack per the spec. The topology follows the paper's
// Section 4 setup: the innermost VM has 4 cores and 12 GB, and each
// intervening hypervisor level adds 2 cores and 12 GB.
func Build(spec Spec) (*Stack, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	norm, prof, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	m, err := machine.New(machine.Config{
		Name:        "cloudlab-L" + strconv.Itoa(spec.Depth) + "-" + spec.IO.String(),
		CPUs:        10,
		MemoryBytes: 96 << 30,
		Caps:        prof.Caps,
		NICVFs:      8,
	})
	if err != nil {
		return nil, err
	}
	host := hyper.NewHost(m, hyper.KVM{})
	st := &Stack{Spec: spec, Profile: prof, Machine: m, World: hyper.NewWorld(host), VMs: make([]*hyper.VM, 0, spec.Depth)}
	// Install the calibration before anything compiles or measures. This is
	// the one place experiment stacks ever touch cost models or capability
	// words; under the default profile it is a bit-identical no-op relative to
	// the previously hard-coded DefaultCosts()/HardwareCaps pair.
	profile.Apply(st.World, prof)

	if norm.Features != 0 {
		d, err := core.Enable(st.World, norm.Features)
		if err != nil {
			return nil, err
		}
		st.DVH = d
	}

	guestPersonality := func() hyper.Personality {
		switch spec.Guest {
		case GuestXen:
			return xen.Xen{}
		case GuestHyperV:
			return hyperv.HyperV{}
		default:
			// GuestKVM and the zero value both mean the paper's default stack.
			return hyper.KVM{}
		}
	}

	// Build the VM chain: 4 cores for the innermost VM plus 2 per
	// intervening hypervisor, 12 GB per level.
	h := host
	for lvl := 1; lvl <= spec.Depth; lvl++ {
		cores := 4 + 2*(spec.Depth-lvl)
		memBytes := uint64(12*(spec.Depth-lvl+1)) << 30
		vm, err := h.CreateVM(hyper.VMConfig{
			Name:     "L" + strconv.Itoa(lvl) + "-vm",
			VCPUs:    cores,
			MemBytes: memBytes,
		})
		if err != nil {
			return nil, err
		}
		st.VMs = append(st.VMs, vm)
		if lvl < spec.Depth {
			p := guestPersonality()
			h = vm.InstallHypervisor(p, p.Name()+"-L"+strconv.Itoa(lvl))
		}
	}
	st.Target = st.VMs[spec.Depth-1]

	if err := st.attachIO(); err != nil {
		return nil, err
	}
	if st.DVH != nil && spec.Depth >= 2 {
		if err := st.DVH.ConfigureVM(st.Target); err != nil {
			return nil, err
		}
	}
	if spec.Enlightened {
		var ic hyper.Interceptor
		switch spec.Guest {
		case GuestHyperV:
			ic = hyperv.Enlightenment{}
		case GuestXen:
			ic = xen.Enlightenment{}
		default:
			// Unreachable for GuestKVM, which Validate rejects.
			return nil, fmt.Errorf("experiment: no enlightenment interceptor for guest %d", spec.Guest)
		}
		if err := st.World.RegisterInterceptor(ic); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Validate reports why Build cannot assemble spec, or nil: a depth outside
// 1..MaxDepth, a DVH I/O mode without a nested VM, or an enlightenment with
// no guest hypervisor that has one. The errors name the -io and -enlightened
// flags the CLIs share, so nvsim and nvartifact print them as usage errors
// before any output.
func (spec Spec) Validate() error {
	if spec.Depth < 1 || spec.Depth > MaxDepth {
		return fmt.Errorf("depth %d out of range", spec.Depth)
	}
	if spec.Depth == 1 && (spec.IO == IODVHVP || spec.IO == IODVH) {
		return fmt.Errorf("-io %s requires a nested VM (depth >= 2)", strings.ToLower(spec.IO.String()))
	}
	if spec.Enlightened {
		if spec.Depth < 2 {
			return fmt.Errorf("-enlightened requires a nested stack (depth >= 2); there is no guest hypervisor to enlighten at depth %d", spec.Depth)
		}
		if spec.Guest == GuestKVM {
			return fmt.Errorf("-enlightened requires a Hyper-V or Xen guest hypervisor; KVM has no enlightenment interceptor")
		}
	}
	return nil
}

// normalize fills in the parts of a Spec that have defaults: Profile becomes
// the name of the calibration profile resolveProfile selects, and a zero
// Features becomes the I/O mode's DVH feature set. Two Specs that build the
// same stack normalize to the same value. Build and the cell key (cell.go)
// share this one normalization.
func (spec Spec) normalize() (Spec, profile.Profile, error) {
	prof, err := resolveProfile(spec.Profile)
	if err != nil {
		return spec, prof, fmt.Errorf("experiment: %w", err)
	}
	spec.Profile = prof.Name
	if spec.Features == 0 {
		switch spec.IO {
		case IODVHVP:
			spec.Features = core.FeaturesVP
		case IODVH:
			spec.Features = core.FeaturesAll
		default:
			// Paravirtual and passthrough baselines run without DVH.
		}
	}
	return spec, prof, nil
}

// attachIO wires the target VM's network and block devices per the I/O mode.
func (st *Stack) attachIO() error {
	switch st.Spec.IO {
	case IOParavirt:
		// The cascade: every level gets its own virtio devices.
		for _, vm := range st.VMs {
			net, err := hyper.AttachParavirtNet(vm, "virtio-net-L"+strconv.Itoa(vm.Level))
			if err != nil {
				return err
			}
			blk, err := hyper.AttachParavirtBlk(vm, "virtio-blk-L"+strconv.Itoa(vm.Level))
			if err != nil {
				return err
			}
			if vm == st.Target {
				st.Net, st.Blk = net, blk
			}
		}
	case IOPassthrough:
		// NIC: a physical VF through the chain. Storage stays virtio at
		// every level, as in the paper's testbed (passthrough applies to the
		// SR-IOV NIC only).
		for _, vm := range st.VMs[:len(st.VMs)-1] {
			vm.ProvideVIOMMU(true)
		}
		for _, vm := range st.VMs {
			blk, err := hyper.AttachParavirtBlk(vm, "virtio-blk-L"+strconv.Itoa(vm.Level))
			if err != nil {
				return err
			}
			if vm == st.Target {
				st.Blk = blk
			}
		}
		vfs, err := st.Machine.CreateVFs(1)
		if err != nil {
			return err
		}
		net, err := hyper.AttachPassthroughNIC(st.Target, vfs[0])
		if err != nil {
			return err
		}
		st.Net = net
	case IODVHVP, IODVH:
		net, err := st.DVH.AttachVirtualPassthroughNet(st.Target, "vp-net0")
		if err != nil {
			return err
		}
		blk, err := st.DVH.AttachVirtualPassthroughBlk(st.Target, "vp-blk0")
		if err != nil {
			return err
		}
		st.Net, st.Blk = net, blk
	default:
		return fmt.Errorf("experiment: unknown IO mode %v", st.Spec.IO)
	}
	return nil
}
