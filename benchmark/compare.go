package main

// `benchmark compare A.json B.json`: judge result B against baseline A,
// one row per (workload, end-to-end metric).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges b against baseline a. The spread of a metric is the
// range of its repetitions over their median. While both spreads stay
// within the bound the medians decide: worse or better by more than
// the bound, else within. A spread wider than the bound resolves
// nothing unless the two ranges do not even touch. A metric without a
// bound is shown for information.
func verdict(a, b measured) string {
	if a.Bound == 0 {
		return "info"
	}
	if a.Median == 0 {
		return "unresolved"
	}
	lowerBetter := a.Better != "higher"
	change := (b.Median - a.Median) / a.Median // > 0: b reads higher
	if !lowerBetter {
		change = -change
	} // now > 0: b is worse
	spread := func(m measured) float64 {
		if m.Median == 0 {
			return 0
		}
		return (m.Max - m.Min) / m.Median
	}
	if max(spread(a), spread(b)) > a.Bound {
		disjoint := b.Min > a.Max || b.Max < a.Min
		if !disjoint {
			return "unresolved"
		}
	}
	switch {
	case change > a.Bound:
		return "worse"
	case change < -a.Bound:
		return "better"
	}
	return "within"
}

func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var rs [2]result
	for i, path := range args {
		var err error
		if rs[i], err = readResult(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	return compare(rs[0], rs[1], out)
}

// sameShape reports why b cannot be judged against a: `compare` is a
// gate, and results of different workload sets or run shapes would pass
// it by leaving rows out or by resting on fewer timings.
func sameShape(a result, b map[string]workloadResult) error {
	if len(a.Workloads) != len(b) {
		return fmt.Errorf("A has %d workloads, B has %d", len(a.Workloads), len(b))
	}
	for _, wa := range a.Workloads {
		wb, ok := b[wa.Name]
		if !ok {
			return fmt.Errorf("workload %s is in A and not in B", wa.Name)
		}
		if wa.Reps != wb.Reps || wa.RepSeconds != wb.RepSeconds || wa.Clients != wb.Clients {
			return fmt.Errorf("workload %s: A ran %d x %gs with %d clients, B %d x %gs with %d",
				wa.Name, wa.Reps, wa.RepSeconds, wa.Clients, wb.Reps, wb.RepSeconds, wb.Clients)
		}
	}
	return nil
}

// compare prints the rows and returns 1 if any is worse, 2 if the two
// results are not comparable, else 0. A metric A has and B lacks, and a
// workload B got wrong, are worse.
func compare(a, b result, out io.Writer) int {
	byName := make(map[string]workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	if err := sameShape(a, byName); err != nil {
		fmt.Fprintln(out, "not comparable:", err)
		return 2
	}
	for i, r := range []result{a, b} {
		fmt.Fprintf(out, "%c: commit %s, seed %d, raw fsync p50 %.1f us, cpu probe p50 %.0f ns\n",
			'A'+i, r.Env.GitCommit, r.Env.Seed, r.Env.FsyncP50Us, r.Env.CPUProbeNs)
	}
	fmt.Fprintf(out, "%-12s %-14s %-5s %12s %24s %12s %24s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A [min .. max]", "B median", "B [min .. max]", "B/A", "bound", "verdict")
	rows, worse := 0, 0
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		names := make([]string, 0, len(wa.EndToEnd))
		for name := range wa.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		rows += len(names)
		for _, name := range names {
			ma := wa.EndToEnd[name]
			mb, ok := wb.EndToEnd[name]
			if !ok {
				fmt.Fprintf(out, "%-12s %-14s %-5s %12.4f %24s %12s %24s %8s %6s  %s\n",
					wa.Name, name, ma.Unit, ma.Median, fmt.Sprintf("[%.4g .. %.4g]", ma.Min, ma.Max), "-", "-", "-", boundText(ma.Bound), "worse (missing in B)")
				worse++
				continue
			}
			v := verdict(ma, mb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-12s %-14s %-5s %12.4f %24s %12.4f %24s %8.3f %6s  %s\n",
				wa.Name, name, ma.Unit, ma.Median, fmt.Sprintf("[%.4g .. %.4g]", ma.Min, ma.Max),
				mb.Median, fmt.Sprintf("[%.4g .. %.4g]", mb.Min, mb.Max), mb.Median/ma.Median, boundText(ma.Bound), v)
		}
		if !wb.Correct || wb.FailedShare > maxFailedShare {
			fmt.Fprintf(out, "%-12s correct=%v, failed_share %.6f (at most %.3f)  worse\n", wb.Name, wb.Correct, wb.FailedShare, maxFailedShare)
			worse++
		}
	}
	if rows == 0 {
		fmt.Fprintln(out, "not comparable: A has no end-to-end metrics (was it run with -trace 1?)")
		return 2
	}
	if worse > 0 {
		fmt.Fprintf(out, "%d worse\n", worse)
		return 1
	}
	return 0
}
