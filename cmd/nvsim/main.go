// nvsim runs one workload on one nested-virtualization configuration and
// prints the projected result plus the exit accounting behind it:
//
//	nvsim -depth 2 -io paravirt -workload "Netperf RR"
//	nvsim -depth 3 -io dvh -workload Memcached -txns 5000
//	nvsim -depth 2 -io dvh-vp -guest xen -workload Apache -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiment"
	"repro/internal/profile"
	"repro/internal/workload"
)

func main() {
	depth := flag.Int("depth", 2, "virtualization depth: 1=VM, 2=nested VM, 3=L3 VM, 4=L4 VM")
	ioName := flag.String("io", "paravirt", "I/O configuration: paravirt | passthrough | dvh-vp | dvh")
	guest := flag.String("guest", "kvm", "guest hypervisor: kvm | xen | hyperv")
	wl := flag.String("workload", "Netperf RR", "workload name from Table 2, or 'all'")
	txns := flag.Int("txns", 2000, "transactions to simulate")
	stats := flag.Bool("stats", false, "dump exit accounting after the run")
	breakdown := flag.Bool("breakdown", false, "print per-mechanism cycle attribution and latency percentiles")
	profName := flag.String("profile", "", "calibration profile (default $NVSIM_PROFILE, then "+profile.DefaultName+")")
	flag.Parse()

	if *txns < 1 {
		usagef("-txns must be >= 1, got %d", *txns)
	}
	if *depth < 1 || *depth > experiment.MaxDepth {
		usagef("-depth must be between 1 and %d, got %d", experiment.MaxDepth, *depth)
	}
	prof, err := profile.Resolve(*profName)
	if err != nil {
		usagef("%v", err)
	}
	spec := experiment.Spec{Depth: *depth, Profile: prof.Name}
	if spec.IO, err = experiment.ParseIOMode(*ioName); err != nil {
		usagef("%v", err)
	}
	if spec.Guest, err = experiment.ParseGuest(*guest); err != nil {
		usagef("%v", err)
	}
	if err := spec.Validate(); err != nil {
		usagef("%v", err)
	}
	var profiles []workload.Profile
	if *wl == "all" {
		profiles = workload.Profiles()
	} else {
		p, ok := workload.ProfileByName(*wl)
		if !ok {
			var names []string
			for _, p := range workload.Profiles() {
				names = append(names, p.Name)
			}
			usagef("unknown -workload %q (have: %s)", *wl, strings.Join(names, ", "))
		}
		profiles = []workload.Profile{p}
	}

	st, err := experiment.Build(spec)
	if err != nil {
		fatalf("building stack: %v", err)
	}
	fmt.Printf("stack: depth=%d io=%v guest=%s profile=%s target=%s (%d vCPUs)\n",
		spec.Depth, spec.IO, *guest, st.Profile.Name, st.Target.Name, len(st.Target.VCPUs))

	fmt.Printf("%-16s %10s %14s %14s %10s\n", "workload", "overhead", "score", "native", "unit")
	for _, p := range profiles {
		r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
		res, err := r.Run(*txns)
		if err != nil {
			fatalf("running %s: %v", p.Name, err)
		}
		fmt.Printf("%-16s %9.2fx %14.1f %14.1f %10s\n", p.Name, res.Overhead, res.Score, p.NativeScore, p.Unit)
		if *breakdown {
			fmt.Printf("  latency/txn: p50<=%v p99<=%v max=%v cycles\n",
				res.Latency.Quantile(0.50), res.Latency.Quantile(0.99), res.Latency.Max())
			var keys []string
			for k := range res.Breakdown {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				perTxn := float64(res.Breakdown[k]) / float64(res.Transactions)
				fmt.Printf("  %-8s %12.0f cycles/txn\n", k, perTxn)
			}
		}
	}

	if *stats {
		fmt.Println("\nexit accounting:")
		fmt.Print(st.Machine.Stats.String())
	}
}

// usagef reports a bad flag value and exits 2, the flag package's code for
// usage errors; fatalf reports a failed run and exits 1.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvsim: "+format+"\n", args...)
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvsim: "+format+"\n", args...)
	os.Exit(1)
}
