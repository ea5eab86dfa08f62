// Command benchdiff compares two tracked benchmark runs (BENCH_*.json,
// written by cmd/benchjson) and fails on hot-path regressions. It is the
// CI gate for the perf trajectory: time regressions beyond the tolerance
// fail the run, and so does any growth in allocs/op or B/op beyond the
// tolerance — in particular a benchmark that was allocation-free must
// stay allocation-free.
//
// Usage:
//
//	benchdiff [-tolerance 0.20] old.json new.json
//
// Benchmarks present in only one file are reported as warnings but do
// not fail the comparison (filters legitimately differ between full and
// reduced runs). Exit status: 0 when within tolerance, 1 on regression,
// 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"numasim/internal/benchfmt"
)

// report writes one comparison table and returns the regressions found.
func report(old, new *benchfmt.File, tol float64, w io.Writer) []string {
	oldBy := old.ByName()
	newBy := new.ByName()
	names := make([]string, 0, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		if _, ok := newBy[b.Name]; ok {
			names = append(names, b.Name)
		}
	}
	sort.Strings(names)
	var regressions []string
	fmt.Fprintf(w, "%-40s %14s %14s %8s  %-20s %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "B/op", "allocs/op")
	for _, name := range names {
		o, n := oldBy[name], newBy[name]
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		mark := ""
		if delta > tol {
			mark = "  << REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op regressed %.1f%% (%.4g -> %.4g, tolerance %.0f%%)",
					name, delta*100, o.NsPerOp, n.NsPerOp, tol*100))
		}
		// Allocation counts and bytes are near-deterministic: allow the
		// same relative tolerance but never any on a path that had none.
		for _, a := range []struct {
			unit     string
			old, new float64
		}{
			{"B/op", o.BytesPerOp, n.BytesPerOp},
			{"allocs/op", o.AllocsPerOp, n.AllocsPerOp},
		} {
			if a.new > math.Ceil(a.old*(1+tol)) {
				mark = "  << REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s: %s regressed %.4g -> %.4g (tolerance %.0f%%)",
						name, a.unit, a.old, a.new, tol*100))
			}
		}
		fmt.Fprintf(w, "%-40s %14.4g %14.4g %+7.1f%%  %-20s %.4g -> %.4g%s\n",
			name, o.NsPerOp, n.NsPerOp, delta*100,
			fmt.Sprintf("%.4g -> %.4g", o.BytesPerOp, n.BytesPerOp),
			o.AllocsPerOp, n.AllocsPerOp, mark)
	}
	return regressions
}

func load(path string) (*benchfmt.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchfmt.Read(f)
}

// run is the testable entry point: it parses args (without the program
// name) and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tolerance", 0.20, "relative ns/op, B/op and allocs/op slack before a regression fails")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-tolerance 0.20] old.json new.json")
		return 2
	}
	old, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	new, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	oldBy, newBy := old.ByName(), new.ByName()
	common := 0
	for _, b := range old.Benchmarks {
		if _, ok := newBy[b.Name]; ok {
			common++
		} else {
			fmt.Fprintf(stderr, "benchdiff: warning: %s only in %s\n", b.Name, fs.Arg(0))
		}
	}
	for _, b := range new.Benchmarks {
		if _, ok := oldBy[b.Name]; !ok {
			fmt.Fprintf(stderr, "benchdiff: warning: %s only in %s\n", b.Name, fs.Arg(1))
		}
	}
	if common == 0 {
		fmt.Fprintln(stderr, "benchdiff: the two files share no benchmarks")
		return 2
	}
	regressions := report(old, new, *tol, stdout)
	if len(regressions) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s):\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintln(stderr, "  "+r)
		}
		return 1
	}
	fmt.Fprintf(stdout, "OK: %d benchmarks within %.0f%% tolerance\n", common, *tol*100)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
