// Command tables regenerates the tables and figures of the paper's
// evaluation: Tables 1-2 (the NUMA manager's action matrices, derived from
// the implementation), Table 3 (user times and model parameters for the
// application mix), Table 4 (system-time overhead), and Figures 1-2
// (architecture diagrams). Published values are printed alongside measured
// ones.
//
// Usage:
//
//	tables [-nproc N] [-topology NAME] [-workers N] [-small] [-parallel N] [-timing]
//	       [-table N | -figure N | -exp NAME] [-csv]
//	       [-app NAME] [-size N] [-policy SPEC] [-frames LIST] [-chaos-seed N] [-chaos-fail P]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// Run tables -h for the full flag set (the synopsis it prints names
// every flag, and a test keeps it that way).
//
// Every output is an experiment in the harness registry; -exp runs one by
// name (-exp list prints them all), and -table/-figure are shorthand for
// the tableN/figureN entries. The registry also holds the model
// ablations: the pin-threshold, page-size, G/L and scheduling-quantum
// sweeps, the affinity, Unix-master, replication and remote-reference
// comparisons, and the application mix. -app selects the application
// for experiments that take one, -size its problem size, -policy the
// placement policy for single-policy experiments (any registry spec,
// e.g. decaythreshold or threshold:limit=2), -frames the local-frame
// budgets for the pressure sweep, and the -chaos flags enable seeded
// fault injection.
//
// -parallel bounds how many independent simulations run concurrently;
// the tables are byte-identical at every setting. -timing reports
// wall-clock time and per-kind simtrace event counts on stderr —
// diagnostics only, never part of a table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"numasim/internal/harness"
	"numasim/internal/metrics"
	"numasim/internal/simtrace"
)

// usageText is the synopsis -h prints before the flag defaults. The
// usage test asserts it mentions every registered flag, so a flag
// cannot be added without extending it.
const usageText = `Usage: tables [flags]

Regenerate the paper's tables and figures, or run one experiment from
the harness registry.

  tables [-nproc N] [-topology ace|4socket|mesh8] [-workers N] [-small]
         [-parallel N] [-timing] [-csv]
  tables -table N | -figure N | -exp NAME               one output (-exp list)
  tables -app NAME -size N -policy SPEC -frames LIST    experiment parameters
  tables -chaos-seed N -chaos-fail P -chaos-delay P     seeded fault injection
         -chaos-panic-at D -chaos-stall-at D            crash/stall drills
  tables -chaos-node-fail 2@10ms-60ms                   degraded-mode failure
         -chaos-link-fail node0-node1@5msx4-9ms         schedules (virtual time)
  tables -audit N -timeout D -repro-dir DIR             supervision: auditing,
         -keep-going -stall-limit N                     repro bundles, watchdogs
  tables -cpuprofile FILE -memprofile FILE              host profiling

Flags:
`

// run is the testable entry point: it parses args (without the program
// name) and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usageText)
		fs.PrintDefaults()
	}
	shared := harness.BindFlags(fs)
	smallFlag := fs.Bool("small", false, "use reduced problem sizes")
	table := fs.Int("table", 0, "print only table N (1-4)")
	figure := fs.Int("figure", 0, "print only figure N (1-2)")
	csv := fs.Bool("csv", false, "emit tabular experiments as CSV")
	timing := fs.Bool("timing", false, "report wall-clock run time and simtrace event counts on stderr (diagnostic only; never part of a table)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := shared.StartProfiling()
	if err != nil {
		fmt.Fprintln(stderr, "tables:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "tables:", err)
		}
	}()

	opts, err := shared.Options("tables " + strings.Join(args, " "))
	if err != nil {
		fmt.Fprintln(stderr, "tables:", err)
		return 2
	}
	opts.Small = *smallFlag

	// The experiments to print, in document order: the whole evaluation by
	// default, or the single table/figure/experiment asked for.
	names := harness.TablesSequence
	switch {
	case *table > 0:
		names = []string{fmt.Sprintf("table%d", *table)}
	case *figure > 0:
		names = []string{fmt.Sprintf("figure%d", *figure)}
	case shared.Exp != "":
		names = []string{shared.Exp}
	}

	// Wall-clock time is host-side diagnostics in its own unit type
	// (metrics.WallMicros); the tables themselves carry only virtual
	// seconds (sim.Ticks), and the numalint units analyzer keeps the two
	// from ever mixing. The counting sink rides along on every machine the
	// experiments build: one atomic add per event, aggregated across all
	// concurrent runs.
	if *timing {
		start := time.Now()
		counts := &simtrace.CountingSink{}
		opts.TraceSink = counts
		defer func() {
			fmt.Fprintf(stderr, "tables: wall time %.1f ms\n", metrics.WallSince(start).Millis())
			fmt.Fprintf(stderr, "tables: %d trace events\n%s", counts.Total(), counts.Render())
		}()
	}
	return harness.RunExperiments("tables", names, opts, *csv, stdout, stderr)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
