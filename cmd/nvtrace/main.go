// nvtrace runs one Table 1 microbenchmark and dumps the exit accounting,
// making exit multiplication (paper Figure 1a) directly visible: one nested
// hypercall fans out into dozens of hardware exits, most of them the guest
// hypervisor's own trapped VMREAD/VMWRITE/VMRESUME instructions.
//
//	nvtrace -depth 2 -micro Hypercall
//	nvtrace -depth 3 -micro ProgramTimer -dvh
//	nvtrace -depth 3 -micro Hypercall -stages
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiment"
	"repro/internal/hyper"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var microNames []string
	for _, m := range workload.Micros() {
		microNames = append(microNames, m.String())
	}
	depth := flag.Int("depth", 2, "virtualization depth (1-3)")
	micro := flag.String("micro", "Hypercall", "microbenchmark: "+strings.Join(microNames, " | "))
	dvh := flag.Bool("dvh", false, "enable DVH")
	timeline := flag.Bool("timeline", false, "print the per-exit timeline, indented by handler level")
	stages := flag.Bool("stages", false, "print per-stage cycle attribution and latency histograms")
	ring := flag.Int("ring", 4096, "timeline ring-buffer capacity (exits retained)")
	profName := flag.String("profile", "", "calibration profile (default $NVSIM_PROFILE, then "+profile.DefaultName+")")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nvtrace: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	prof, err := profile.Resolve(*profName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvtrace: %v\n", err)
		os.Exit(2)
	}

	mi := slices.Index(microNames, *micro)
	if mi < 0 {
		fmt.Fprintf(os.Stderr, "nvtrace: unknown -micro %q (valid: %s)\n", *micro, strings.Join(microNames, ", "))
		os.Exit(2)
	}
	m := workload.Micros()[mi]

	if *depth < 1 || *depth > 3 {
		fmt.Fprintf(os.Stderr, "nvtrace: -depth must be between 1 and 3, got %d\n", *depth)
		os.Exit(2)
	}
	if *ring < 1 {
		fmt.Fprintf(os.Stderr, "nvtrace: -ring must be positive, got %d\n", *ring)
		os.Exit(2)
	}

	io := experiment.IOParavirt
	if *dvh {
		if *depth < 2 {
			fmt.Fprintln(os.Stderr, "nvtrace: DVH needs a nested VM (-depth >= 2)")
			os.Exit(2)
		}
		io = experiment.IODVH
	}
	st, err := experiment.Build(experiment.Spec{Depth: *depth, IO: io, Profile: prof.Name})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvtrace: %v\n", err)
		os.Exit(1)
	}

	st.Machine.Stats.Reset()
	if *timeline {
		st.World.Tracer = trace.NewRecorder(*ring)
	}
	if *stages {
		st.World.Stages = &hyper.StageStats{}
	}
	cycles, err := workload.RunMicro(st.World, st.Target.VCPUs[0], m, st.Net, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvtrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s from L%d (dvh=%v, profile=%s): %v cycles\n\n", m, *depth, *dvh, st.Profile.Name, cycles)
	fmt.Print(st.Machine.Stats.String())
	if *stages {
		fmt.Println("\nper-stage attribution:")
		fmt.Print(st.World.Stages.String())
	}
	if *timeline {
		retained := len(st.World.Tracer.Events())
		total := st.World.Tracer.Len()
		fmt.Println("\nexit timeline:")
		if uint64(retained) < total {
			fmt.Printf("(%d of %d exits retained; oldest dropped — raise -ring)\n", retained, total)
		}
		fmt.Print(st.World.Tracer.Timeline())
	}
}
