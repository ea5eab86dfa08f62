package harness

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"numasim/internal/chaos"
	"numasim/internal/profiling"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// Flags are the command-line flags the tables and acesim commands share.
// BindFlags declares them once; Options turns the parsed values into
// validated experiment options.
type Flags struct {
	// Exp is the -exp experiment name ("list" prints the registry).
	Exp string

	opts                         Options
	frames                       string
	chaosSeed                    int64
	chaosFail, chaosDelay        float64
	chaosPanicAt, chaosStallAt   time.Duration
	chaosNodeFail, chaosLinkFail string
	cpuProfile, memProfile       string
}

// BindFlags declares the shared flags on fs. -app and -policy default to
// empty, which leaves each experiment's own choice in force.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	o := &f.opts
	fs.IntVar(&o.NProc, "nproc", 7, "number of processors")
	fs.StringVar(&o.Topology, "topology", "", "machine topology: ace (default), "+strings.Join(topology.Names()[1:], ", "))
	fs.IntVar(&o.Workers, "workers", 0, "worker threads (default: one per processor)")
	fs.StringVar(&o.App, "app", "", "application, case-insensitive (acesim: a comma-separated list, default IMatMult; experiments: default per experiment)")
	fs.StringVar(&o.Policy, "policy", "", "placement policy, as a registry spec like decaythreshold or threshold:limit=2 (default: the paper's threshold policy, or per experiment)")
	fs.IntVar(&o.AppSize, "size", 0, "problem size (0: workload default); units for ParMult, pages for Gfetch, matrix side for IMatMult/FFT, limit for Primes1-3, triangles for PlyTrace")
	fs.StringVar(&f.Exp, "exp", "", "run the named harness experiment (list: print the registry)")
	fs.StringVar(&f.frames, "frames", "", "comma-separated local-frame budgets for the pressure sweep")
	fs.IntVar(&o.Parallelism, "parallel", 0, "simulations to run concurrently (0: one per host CPU; results are identical at every setting)")
	fs.Int64Var(&f.chaosSeed, "chaos-seed", 0, "seed for fault injection (used when a -chaos probability is set)")
	fs.Float64Var(&f.chaosFail, "chaos-fail", 0, "probability a local frame allocation transiently fails (0 disables)")
	fs.Float64Var(&f.chaosDelay, "chaos-delay", 0, "probability a page move is delayed (0 disables)")
	fs.DurationVar(&f.chaosPanicAt, "chaos-panic-at", 0, "inject one panic at this virtual time (crash drill; 0 disables)")
	fs.DurationVar(&f.chaosStallAt, "chaos-stall-at", 0, "inject one virtual-time stall at this virtual time (watchdog drill; 0 disables)")
	fs.StringVar(&f.chaosNodeFail, "chaos-node-fail", "", "node failure schedule: comma-separated NODE@OFF[-ON] virtual times, e.g. 2@10ms-60ms")
	fs.StringVar(&f.chaosLinkFail, "chaos-link-fail", "", "link failure schedule: comma-separated LINK@AT[xFACTOR][-RESTORE], e.g. node0-node1@5msx4-9ms")
	fs.IntVar(&o.Audit, "audit", 0, "online protocol-audit sampling stride (0: off, 1: audit every protocol action, N: sampled)")
	fs.DurationVar(&o.Timeout, "timeout", 0, "wall-clock budget per supervised run (0: none)")
	fs.IntVar(&o.Retries, "retries", 0, "re-run a failed unit up to this many times before giving up")
	fs.StringVar(&o.ReproDir, "repro-dir", "", "write a repro bundle for each failed run into this directory (implies -keep-going)")
	fs.BoolVar(&o.KeepGoing, "keep-going", false, "continue past failed runs and report partial results")
	fs.IntVar(&o.StallLimit, "stall-limit", 0, "engine stall-watchdog threshold in dispatches (0: default)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to `file`")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to `file` at exit")
	return f
}

// Options returns the parsed flags as validated options; command is the
// invocation recorded in repro bundles.
func (f *Flags) Options(command string) (Options, error) {
	o := f.opts
	o.Command = command
	var err error
	if o.PressureFrames, err = parseFrames(f.frames); err != nil {
		return Options{}, err
	}
	if f.chaosFail <= 0 && f.chaosDelay <= 0 && f.chaosPanicAt <= 0 && f.chaosStallAt <= 0 &&
		f.chaosNodeFail == "" && f.chaosLinkFail == "" {
		return o, nil
	}
	health, err := chaos.ParseHealthSchedule(f.chaosNodeFail, f.chaosLinkFail)
	if err != nil {
		return Options{}, err
	}
	o.Chaos = chaos.Config{
		Seed: f.chaosSeed, FailProb: f.chaosFail, DelayProb: f.chaosDelay,
		MaxRetries: chaos.DefaultMaxRetries, Backoff: chaos.DefaultBackoff,
		MoveDelay: chaos.DefaultMoveDelay,
		PanicAt:   sim.Time(f.chaosPanicAt.Nanoseconds()) * sim.Nanosecond,
		StallAt:   sim.Time(f.chaosStallAt.Nanoseconds()) * sim.Nanosecond,
		Health:    health,
	}
	return o, o.Chaos.Validate()
}

// StartProfiling starts the -cpuprofile and -memprofile host profiles;
// call stop at exit to flush them.
func (f *Flags) StartProfiling() (stop func() error, err error) {
	return profiling.Start(f.cpuProfile, f.memProfile)
}

// parseFrames parses a comma-separated list of local-frame budgets.
func parseFrames(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var frames []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -frames entry %q (want positive integers)", part)
		}
		frames = append(frames, n)
	}
	return frames, nil
}

// RunExperiments runs the named registry experiments in order and prints
// each result to stdout, as CSV when csv is set and the result has that
// form; the name "list" prints the registry instead. Errors go to stderr
// prefixed with prog. It returns the process exit code.
func RunExperiments(prog string, names []string, opts Options, csv bool, stdout, stderr io.Writer) int {
	for _, name := range names {
		if name == "list" {
			for _, e := range experiments {
				fmt.Fprintf(stdout, "%-16s %s\n", e.Name, e.Describe)
			}
			continue
		}
		e, ok := Lookup(name)
		if !ok {
			fmt.Fprintf(stderr, "%s: unknown experiment %q (try -exp list)\n", prog, name)
			return 1
		}
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", prog, err)
			return 1
		}
		if c, ok := res.(CSVResult); ok && csv {
			fmt.Fprint(stdout, c.RenderCSV())
			continue
		}
		fmt.Fprintln(stdout, res.Render())
	}
	return 0
}
