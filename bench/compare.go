package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return recs, nil
}

// minPairs is the fewest seed-paired runs a verdict other than unresolved
// rests on.
const minPairs = 10

// sameRunLength checks that every record was made with one scale and one
// -seconds: runs of different length are not comparable.
func sameRunLength(recs []record) error {
	for _, r := range recs[1:] {
		if r.Scale != recs[0].Scale || r.Seconds != recs[0].Seconds {
			return fmt.Errorf("records differ in run length: %s seed %d has scale %g, seconds %g; %s seed %d has scale %g, seconds %g",
				recs[0].Workload, recs[0].Seed, recs[0].Scale, recs[0].Seconds, r.Workload, r.Seed, r.Scale, r.Seconds)
		}
	}
	return nil
}

// compareFiles compares the parent's runs (A) with the change's (B) in the
// way of a claimed gain: for each workload and end-to-end metric it prints
// both medians and quartiles, how many seed-paired runs B won, and a
// verdict. It reports whether any verdict is "worse". Every record must
// share one scale and one -seconds.
//
//   - unresolved: fewer than minPairs seed pairs, or A's own spread exceeds
//     the bound and not every B run beat every A run;
//   - worse: B's median is worse than A's by more than the metric's bound,
//     or B's error rate (failed / attempted ops) is higher;
//   - improved: B won at least 9 in 10 pairs and the medians differ by more
//     than A's interquartile range;
//   - unchanged: otherwise.
func compareFiles(specPath, aPath, bPath string, out io.Writer) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	if err := sameRunLength(append(append([]record(nil), a...), b...)); err != nil {
		return false, err
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	aw, bw := byWorkload(a), byWorkload(b)
	var names []string
	for w := range aw {
		if _, ok := bw[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", aPath, bPath)
	}

	worse := false
	fmt.Fprintf(out, "%-14s %-14s %-5s %28s %28s %8s %7s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins", "verdict")
	for _, w := range names {
		ra, rb := aw[w], bw[w]
		for _, m := range spec.EndToEnd {
			av, bv := values(ra, m.Name), values(rb, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			lower := m.Better != "higher"
			better := func(x, y float64) bool { // x better than y
				if lower {
					return x < y
				}
				return x > y
			}
			ma, mb := median(av), median(bv)
			qa1, qa3 := quartiles(av)
			qb1, qb3 := quartiles(bv)
			wins, pairs := pairWins(ra, rb, m.Name, better)
			change := ratio(mb-ma, ma)
			worseBy := change
			if !lower {
				worseBy = -change
			}
			verdict := "unchanged"
			switch {
			case pairs < minPairs:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
				worse = true
			case float64(wins) >= 0.9*float64(pairs) && better(mb, ma) && math.Abs(mb-ma) > qa3-qa1:
				verdict = "improved"
			case ratio(qa3-qa1, ma) > m.Bound && !allBetter(bv, av, better):
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-14s %-14s %-5s %28s %28s %+7.1f%% %3d/%-3d  %s\n", w, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", ma, qa1, qa3), fmt.Sprintf("%.4g [%.4g, %.4g]", mb, qb1, qb3),
				100*change, wins, pairs, verdict)
		}
		ea, eb := errorRate(ra), errorRate(rb)
		verdict := "unchanged"
		if eb > ea {
			verdict = "worse"
			worse = true
		}
		fmt.Fprintf(out, "%-14s %-14s %-5s %28.4g %28.4g %8s %7s  %s\n", w, "error_rate", "ratio", ea, eb, "", "", verdict)
	}
	return worse, nil
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// errorRate is failed / attempted ops over the records.
func errorRate(recs []record) float64 {
	var failed, attempted float64
	for _, r := range recs {
		failed += float64(r.Result.Failed)
		attempted += float64(r.Result.Attempted)
	}
	return ratio(failed, attempted)
}

// pairWins pairs A and B runs of the same seed, in order, and counts the
// pairs B won; ties count for neither side.
func pairWins(a, b []record, metric string, better func(x, y float64) bool) (wins, pairs int) {
	bySeed := map[uint64][]float64{}
	for _, r := range a {
		if v, ok := r.Result.Metrics[metric]; ok {
			bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
		}
	}
	for _, r := range b {
		v, ok := r.Result.Metrics[metric]
		if !ok || len(bySeed[r.Seed]) == 0 {
			continue
		}
		av := bySeed[r.Seed][0]
		bySeed[r.Seed] = bySeed[r.Seed][1:]
		pairs++
		if better(v.Value, av) {
			wins++
		}
	}
	return wins, pairs
}

func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
