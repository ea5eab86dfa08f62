// Command acesim runs one or more of the paper's applications on the
// simulated ACE under a chosen NUMA policy and reports timing, placement
// and reference statistics — optionally with a reference trace,
// false-sharing analysis (§4.2, §5), and a structured event trace
// exported as Chrome trace-event JSON for Perfetto.
//
// Usage:
//
//	acesim -app IMatMult [-policy threshold] [-nproc 7]
//	       [-topology ace|4socket|mesh8]
//	       [-workers N] [-sched affinity] [-trace] [-traceout FILE]
//	       [-trace-out FILE] [-unixmaster] [-pagesize N] [-size N]
//	       [-perproc] [-replication=false] [-parallel N]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// Run acesim -h for the full flag set (the synopsis it prints names
// every flag, and a test keeps it that way).
//
// -app accepts a comma-separated list (names are case-insensitive); the
// simulations run concurrently (bounded by -parallel; results are
// identical at every setting) and the reports print in the order given.
//
// The two trace flags write two different formats. -traceout saves the
// per-page reference trace in the binary format traceview analyzes;
// -trace-out saves the structured event trace as Chrome trace-event
// JSON, loadable at ui.perfetto.dev (one track per processor, async
// tracks for page lifetimes). Both require a single -app.
//
// -exp NAME runs a harness-registry experiment instead of a single app
// (the same registry, flags and output the tables command uses; -exp
// list names them). The pressure sweep takes -frames for its local-frame
// budgets, and the -chaos-seed/-chaos-fail/-chaos-delay flags enable
// seeded fault injection.
//
// Policies are registry specs of the form "name:key=val,...": threshold
// (default), allglobal, alllocal, neverpin, pragma, reconsider,
// freezedefrost, decaythreshold, bandit, classifier, coplace. Parameters
// ride on the spec ("threshold:limit=2"); an unknown key's error lists
// every key the policy reads, with its default. Apps: ParMult, Gfetch,
// IMatMult, Primes1, Primes2, Primes2-untuned, Primes3, FFT, PlyTrace,
// plus the Phased and Zipf policy probes.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strings"

	"numasim/internal/ace"
	"numasim/internal/harness"
	"numasim/internal/metrics"
	"numasim/internal/sched"
	"numasim/internal/simtrace"
	"numasim/internal/trace"
)

// report holds acesim's own report flags, shared by every -app entry.
type report struct {
	mode        sched.Mode
	doTrace     bool
	traceOut    string
	chromeOut   string
	unixMaster  bool
	pageSize    int
	perProc     bool
	replication bool
}

// runOne simulates one application through the harness's run path and
// returns its rendered report.
func runOne(app string, opts harness.Options, r report) (string, error) {
	var (
		machine   *ace.Machine
		collector *trace.Collector
		events    *simtrace.ListSink
	)
	res, err := opts.RunApp(app, func(s *metrics.RunSpec) {
		s.Config.PageSize = r.pageSize
		s.Sched = r.mode
		s.UnixMast = r.unixMaster
		s.NoReplication = !r.replication
		if r.doTrace || r.traceOut != "" {
			collector = trace.New(uint(bits.Len(uint(r.pageSize-1))), true)
			s.RefTrace = collector.Hook()
		}
		if r.chromeOut != "" {
			events = &simtrace.ListSink{}
			s.TraceSink = events
		}
		observe := s.OnMachine
		s.OnMachine = func(m *ace.Machine) {
			if observe != nil {
				observe(m)
			}
			machine = m
		}
	})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	eng := machine.Engine()
	fmt.Fprintf(&b, "%s on %d CPUs under %s (%s scheduler)\n", res.Workload, res.NProc, res.Policy, r.mode)
	fmt.Fprintf(&b, "  user time:   %v\n", eng.TotalUserTime())
	fmt.Fprintf(&b, "  system time: %v\n", eng.TotalSysTime())
	fmt.Fprintf(&b, "  references:  %d (%.1f%% local)\n", res.Refs.Total(), 100*res.Refs.LocalFraction())
	fmt.Fprintf(&b, "  faults:      %d\n", res.Faults)
	ns := res.NUMA
	fmt.Fprintf(&b, "  protocol:    %d copies, %d syncs, %d flushes, %d moves, %d pins\n",
		ns.Copies, ns.Syncs, ns.Flushes, ns.Moves, ns.Pins)
	var aliasDrops uint64
	for i := 0; i < machine.NProc(); i++ {
		aliasDrops += machine.MMU(i).Stats().AliasDrops
	}
	fmt.Fprintf(&b, "  mmu:         %d alias drops (Rosetta one-VA-per-frame rule)\n", aliasDrops)
	vs := res.VM
	fmt.Fprintf(&b, "  paging:      %d zero-fills, %d pageouts, %d pageins, %d COW copies\n",
		vs.ZeroFillFaults, vs.Pageouts, vs.Pageins, vs.COWCopies)
	if res.Links != nil {
		fmt.Fprintf(&b, "  interconnect (%s):\n", machine.Spec().Name())
		for _, l := range res.Links {
			fmt.Fprintf(&b, "    %-8s %8d xfers %12d bytes  busy %v  queued %v\n",
				l.Name, l.Xfers, l.Bytes, l.Service, l.Waited)
		}
	}
	if r.perProc {
		fmt.Fprintln(&b, "  per processor:")
		for i := 0; i < machine.NProc(); i++ {
			refs := machine.Proc(i).Refs()
			fmt.Fprintf(&b, "    cpu%-2d  local %9d  global %9d  remote %7d  faults %6d\n",
				i, refs.LocalFetch+refs.LocalStore, refs.GlobalFetch+refs.GlobalStore,
				refs.RemoteFetch+refs.RemoteStore, machine.Proc(i).Faults)
		}
	}
	if collector != nil {
		fmt.Fprintln(&b)
		b.WriteString(collector.Summarize().Render())
		if r.traceOut != "" {
			if err := writeFile(r.traceOut, collector.Save); err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "trace written to %s\n", r.traceOut)
		}
	}
	if events != nil {
		meta := simtrace.ChromeMeta{NProc: machine.NProc(), Label: res.Workload}
		if err := writeFile(r.chromeOut, func(w io.Writer) error {
			return simtrace.WriteChrome(w, events.Events(), meta)
		}); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "event trace (%d events) written to %s — load it at ui.perfetto.dev\n",
			len(events.Events()), r.chromeOut)
	}
	return b.String(), nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usageText is the synopsis -h prints before the flag defaults. The
// usage test asserts it mentions every registered flag, so a flag
// cannot be added without extending it.
const usageText = `Usage: acesim [flags]

Simulate the paper's applications on the ACE under a NUMA placement
policy and report timing, placement and reference statistics.

  acesim -app IMatMult[,Gfetch,...] [-policy SPEC]
         [-nproc N] [-topology ace|4socket|mesh8] [-workers N]
         [-sched affinity|noaffinity] [-pagesize BYTES] [-size N]
         [-unixmaster] [-perproc] [-replication=false] [-parallel N]
  acesim -trace [-traceout FILE] [-trace-out FILE]      reference trace (traceview
                                                        binary) / event trace (JSON)
  acesim -exp NAME [-frames LIST]                       registry experiments (-exp list)
  acesim -chaos-seed N -chaos-fail P -chaos-delay P     seeded fault injection
         -chaos-panic-at D -chaos-stall-at D            crash/stall drills
  acesim -chaos-node-fail 2@10ms-60ms                   degraded-mode failure
         -chaos-link-fail node0-node1@5msx4-9ms         schedules (virtual time)
  acesim -audit N -timeout D -retries N                 supervision: auditing,
         -repro-dir DIR -keep-going -stall-limit N      repro bundles, watchdogs
  acesim -cpuprofile FILE -memprofile FILE              host profiling

Flags:
`

// run is the testable entry point: it parses args (without the program
// name) and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usageText)
		fs.PrintDefaults()
	}
	shared := harness.BindFlags(fs)
	schedName := fs.String("sched", "affinity", "scheduler: affinity or noaffinity")
	doTrace := fs.Bool("trace", false, "collect a reference trace and report sharing classes")
	traceOut := fs.String("traceout", "", "save the reference trace to this file in traceview's binary format (implies -trace)")
	chromeOut := fs.String("trace-out", "", "save the structured event trace to this file as Chrome trace-event JSON (Perfetto)")
	unixMaster := fs.Bool("unixmaster", false, "funnel system calls to processor 0 (§4.6)")
	pageSize := fs.Int("pagesize", 4096, "page size in bytes")
	perProc := fs.Bool("perproc", false, "report per-processor reference counts")
	replication := fs.Bool("replication", true, "replicate read-only pages (disable for the Li-style migration ablation)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := shared.StartProfiling()
	if err != nil {
		fmt.Fprintln(stderr, "acesim:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "acesim:", err)
		}
	}()

	mode, err := sched.ParseMode(*schedName)
	if err != nil {
		fmt.Fprintln(stderr, "acesim:", err)
		return 2
	}
	opts, err := shared.Options("acesim " + strings.Join(args, " "))
	if err != nil {
		fmt.Fprintln(stderr, "acesim:", err)
		return 2
	}
	if shared.Exp != "" {
		return harness.RunExperiments("acesim", []string{shared.Exp}, opts, false, stdout, stderr)
	}

	if opts.App == "" {
		opts.App = "IMatMult"
	}
	apps := strings.Split(opts.App, ",")
	for i := range apps {
		apps[i] = strings.TrimSpace(apps[i])
	}
	if len(apps) > 1 && *traceOut != "" {
		fmt.Fprintln(stderr, "acesim: -traceout requires a single -app (the file would be overwritten)")
		return 1
	}
	if len(apps) > 1 && *chromeOut != "" {
		fmt.Fprintln(stderr, "acesim: -trace-out requires a single -app (the file would be overwritten)")
		return 1
	}
	r := report{
		mode:    mode,
		doTrace: *doTrace, traceOut: *traceOut, chromeOut: *chromeOut,
		unixMaster: *unixMaster,
		pageSize:   *pageSize,
		perProc:    *perProc, replication: *replication,
	}

	// Run every app concurrently (bounded), buffer the reports, and print
	// them in the order given on the command line.
	keepGoing := opts.KeepGoing || opts.ReproDir != ""
	reports := make([]string, len(apps))
	errs := harness.NewPool(opts.Parallelism).RunAll(len(apps), func(i int) error {
		rep, err := runOne(apps[i], opts, r)
		if err != nil {
			return fmt.Errorf("%s: %w", apps[i], err)
		}
		reports[i] = rep
		return nil
	})
	failed := false
	for i, rerr := range errs {
		if rerr == nil {
			continue
		}
		failed = true
		fmt.Fprintln(stderr, "acesim:", rerr)
		if !keepGoing {
			return 1
		}
		reports[i] = fmt.Sprintf("%s: failed: %v\n", apps[i], firstLine(rerr.Error()))
	}
	for i, rep := range reports {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, rep)
	}
	if failed {
		return 1
	}
	return 0
}

// firstLine truncates multi-line error text (panic stacks) for reports.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
