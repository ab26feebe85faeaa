// nvartifact mirrors the paper's artifact-evaluation workflow (Appendix A):
// like run-benchmarks.sh it runs selected application benchmarks several
// times against one server configuration, like results.py it prints each
// benchmark's samples in CSV form with one column per run, and like the
// appendix's methodology it then picks the best run average and reports the
// overhead versus native execution.
//
//	nvartifact -level L2 -io dvh -runs 3
//	nvartifact -level L1 -benchmarks "Netperf RR,Memcached" -runs 5
//	nvartifact -level L0               # native baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	samplesPerRun = 10
	txnsPerSample = 300
)

func main() {
	level := flag.String("level", "L2", "server configuration: L0 (native) | L1 | L2 | L3")
	ioName := flag.String("io", "paravirt", "I/O configuration for L1+: paravirt | passthrough | dvh-vp | dvh")
	guest := flag.String("guest", "kvm", "guest hypervisor for L2+: kvm | xen | hyperv")
	enlightened := flag.Bool("enlightened", false, "register the guest hypervisor's enlightenment interceptor (xen/hyperv guests), so AE runs exercise the interceptor chain")
	runs := flag.Int("runs", 3, "number of runs (the appendix recommends at least 3)")
	benchmarks := flag.String("benchmarks", "all", "comma-separated Table 2 benchmark names, or 'all'")
	seed := flag.Uint64("seed", 2020, "base seed for run-to-run variation")
	par := flag.Int("parallel", 0, "worker goroutines for samples: 0 = auto (NVSIM_PARALLEL or GOMAXPROCS), 1 = sequential")
	profName := flag.String("profile", "", "calibration profile (default $NVSIM_PROFILE, then "+profile.DefaultName+"); see -list-profiles")
	listProfiles := flag.Bool("list-profiles", false, "list registered calibration profiles and exit")
	flag.Parse()
	if *listProfiles {
		fmt.Print(profile.Listing())
		return
	}
	if *par < 0 {
		usagef("-parallel must be >= 0, got %d", *par)
	}
	if *runs < 1 {
		usagef("-runs must be >= 1, got %d", *runs)
	}
	prof, err := profile.Resolve(*profName)
	if err != nil {
		usagef("%v", err)
	}

	depth := map[string]int{"L0": 0, "L1": 1, "L2": 2, "L3": 3}
	d, ok := depth[*level]
	if !ok {
		usagef("unknown -level %q (valid: L0, L1, L2, L3)", *level)
	}
	var selected []workload.Profile
	if *benchmarks == "all" {
		selected = workload.Profiles()
	} else {
		for _, name := range strings.Split(*benchmarks, ",") {
			p, ok := workload.ProfileByName(strings.TrimSpace(name))
			if !ok {
				usagef("unknown -benchmarks entry %q", name)
			}
			selected = append(selected, p)
		}
	}
	spec := experiment.Spec{Depth: d, Profile: prof.Name, Enlightened: *enlightened}
	if spec.IO, err = experiment.ParseIOMode(*ioName); err != nil {
		usagef("%v", err)
	}
	if spec.Guest, err = experiment.ParseGuest(*guest); err != nil {
		usagef("%v", err)
	}
	if d > 0 {
		if err := spec.Validate(); err != nil {
			usagef("%v", err)
		}
	} else if *enlightened {
		usagef("-enlightened needs a nested configuration (-level L2 or L3)")
	}
	fmt.Printf("server: %s io=%s guest=%s enlightened=%v profile=%s\n\n",
		*level, strings.ToLower(*ioName), strings.ToLower(*guest), *enlightened, prof.Name)

	for _, p := range selected {
		fmt.Printf("----------%s------\n", p.Name)
		// samples[s][r]: sample s of run r, in the benchmark's own unit —
		// the matrix results.py prints one row per sample.
		samples := make([][]float64, samplesPerRun)
		for s := range samples {
			samples[s] = make([]float64, *runs)
		}
		runAvgs := make([]float64, *runs)
		// Every (run, sample) pair builds a fresh stack with its own seeded
		// RNG, so samples are independent cells for the worker pool; scores
		// land by index, keeping the CSV identical at any width.
		scores, err := parallel.Map(*par, *runs*samplesPerRun, func(i int) (float64, error) {
			r, s := i/samplesPerRun, i%samplesPerRun
			return oneSample(spec, d, p, *seed+uint64(r*1000+s))
		})
		if err != nil {
			fatalf("%s: %v", p.Name, err)
		}
		for r := 0; r < *runs; r++ {
			for s := 0; s < samplesPerRun; s++ {
				score := scores[r*samplesPerRun+s]
				samples[s][r] = score
				runAvgs[r] += score / samplesPerRun
			}
		}
		for s := 0; s < samplesPerRun; s++ {
			row := make([]string, *runs)
			for r := 0; r < *runs; r++ {
				row[r] = fmt.Sprintf("%.2f", samples[s][r])
			}
			fmt.Println(strings.Join(row, ","))
		}
		fmt.Println("----------------------------")

		// Appendix A.6: the best number is the highest average for rate
		// benchmarks, the lowest for elapsed-time benchmarks.
		best := runAvgs[0]
		for _, a := range runAvgs[1:] {
			if (p.HigherIsBetter && a > best) || (!p.HigherIsBetter && a < best) {
				best = a
			}
		}
		overhead := p.NativeScore / best
		if !p.HigherIsBetter {
			overhead = best / p.NativeScore
		}
		fmt.Printf("best of %d runs: %.2f %s (overhead vs native: %.2fx)\n\n",
			*runs, best, p.Unit, overhead)
	}
}

// oneSample builds a fresh deterministic stack (seeded jitter) and measures
// one sample of the benchmark.
func oneSample(spec experiment.Spec, depth int, p workload.Profile, seed uint64) (float64, error) {
	r := workload.Runner{P: p, RNG: sim.NewRNG(seed)}
	if depth > 0 {
		st, err := experiment.Build(spec)
		if err != nil {
			return 0, err
		}
		r.W, r.VM, r.Net, r.Blk = st.World, st.Target, st.Net, st.Blk
	}
	res, err := r.Run(txnsPerSample)
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}

// usagef reports a bad flag value and exits 2, the flag package's code for
// usage errors; fatalf reports a failed run and exits 1.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvartifact: "+format+"\n", args...)
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nvartifact: "+format+"\n", args...)
	os.Exit(1)
}
