// Package harness regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment
// builds fresh machines, runs the paper's workloads under the paper's
// policies, and renders plain-text tables with the paper's published
// numbers alongside the measured ones.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/metrics"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/simtrace"
	"numasim/internal/workloads"
)

// Options configures the experiments.
type Options struct {
	// NProc is the number of processors for parallel runs (the paper's
	// Table 4 runs used 7).
	NProc int
	// Workers is the number of worker threads (default one per CPU).
	Workers int
	// Small selects reduced problem sizes (used by tests; the defaults
	// are already scaled down from the paper's hours-long runs).
	Small bool
	// Policy, when non-empty, overrides the placement policy for
	// single-policy experiments (the ablations, sweeps and pressure
	// runs). It accepts any policy.Parse spec ("decaythreshold",
	// "threshold:limit=2"; policy.Names lists the names, and an unknown
	// key's error lists every key the policy reads, with its default).
	// Experiments that compare a fixed policy set (table3,
	// policycompare, tournament) ignore it. Empty keeps each
	// experiment's default, byte-identical.
	Policy string
	// AppSize, when positive, overrides the workload's primary size
	// parameter (see workloads.New); a negative size is an error. Sweeps
	// use it to keep repeated runs quick.
	AppSize int
	// Parallelism bounds how many independent simulations run at once
	// (table rows, sweep points, the three runs inside an evaluation),
	// across nested pools too: a table row's evaluation shares the
	// table's bound. <= 0 selects runtime.NumCPU(). Simulated results are
	// identical at every setting; only wall-clock time changes.
	Parallelism int
	// TraceSink, when non-nil, is attached to every simulated machine the
	// experiments build. Runs execute concurrently, so the sink must be
	// safe for concurrent Emit (simtrace.CountingSink is). It feeds the
	// tables -timing event-count report; it never affects table contents.
	TraceSink simtrace.Sink
	// App restricts an experiment to one application: single-app
	// experiments default to their own choice, and the pressure and
	// availability sweeps run the whole mix without it. Table
	// experiments ignore it.
	App string
	// PressureFrames are the local-frame budgets the pressure sweep
	// measures (empty: DefaultPressureFrames).
	PressureFrames []int
	// Topology selects the machine topology by name ("" or "ace" is the
	// paper's two-level ACE; see topology.Names for the others). Every
	// machine an experiment builds uses it.
	Topology string
	// Chaos configures fault injection (transient local-allocation
	// failures, delayed page moves, panic/stall crash drills) for every
	// run an experiment performs. The zero value is chaos off. Each run
	// builds its own injector from Chaos.Seed, so output is byte-identical
	// at every Parallelism.
	Chaos chaos.Config
	// Audit enables the NUMA manager's online auditor at this sampling
	// stride for every run (0 off, 1 full, N sampled).
	Audit int
	// Timeout is the wall-clock budget per supervised unit; 0 means no
	// timeout. When it expires supervise stops every engine the attempt
	// built and reports a timeout failure. On its own it attaches no
	// forensic ring.
	Timeout time.Duration
	// Retries is how many times supervise re-runs a failed unit before
	// giving up (bounded retry; 0 = one attempt only). On its own it
	// attaches no forensic ring.
	Retries int
	// ReproDir, when non-empty, is where supervise writes a repro bundle
	// for each failed attempt (seed, config, flags, trace, state dump,
	// ready-to-run command line). It is the only option that attaches a
	// forensic ring to every run (metrics.RunSpec.Forensics), since a
	// bundle is the ring's only reader; the state dump is the engine's,
	// taken before teardown.
	ReproDir string
	// KeepGoing lets parallel sweeps continue past failed runs and report
	// partial results with per-run error summaries instead of aborting on
	// the first failure. Setting ReproDir implies it.
	KeepGoing bool
	// StallLimit overrides the engine stall-watchdog threshold for every
	// run (0 keeps the engine default).
	StallLimit int
	// Command is the CLI invocation that produced these options, recorded
	// verbatim in repro bundles (e.g. "acesim -exp pressuresweep ...").
	Command string

	// onMachine, when non-nil, is invoked for every machine a run builds.
	// supervise installs it to reach engines for timeout teardown; it may
	// be called concurrently when Parallelism > 1.
	onMachine func(*ace.Machine)
	// slots is a semaphore of Parallelism tokens, one held by each
	// simulation while it runs (see simulate). Copies of the options
	// share it, so the bound holds across nested pools; a pool task that
	// only waits on a pool of its own holds none, so nesting cannot
	// deadlock.
	slots chan struct{}
}

// withDefaults fills in defaults. Options that already carry them keep
// their slots, so an experiment's nested calls share its bound.
func (o Options) withDefaults() Options {
	if o.NProc <= 0 {
		o.NProc = 7
	}
	if o.Workers <= 0 {
		o.Workers = o.NProc
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.slots == nil {
		o.slots = make(chan struct{}, o.Parallelism)
	}
	return o
}

// pool builds the worker pool for the options.
func (o Options) pool() *Pool { return NewPool(o.Parallelism) }

// config builds the machine configuration for the options.
func (o Options) config() ace.Config {
	cfg := ace.DefaultConfig()
	cfg.NProc = o.NProc
	// Frame records are made on first allocation and frame contents on
	// first touch, so the full-size memories cost little more to build;
	// the small variant keeps its smaller memories because the goldens
	// were recorded at them.
	if o.Small {
		cfg.GlobalFrames = 2048
		cfg.LocalFrames = 1024
	}
	cfg.Topology = o.Topology
	return cfg
}

// instance builds a fresh workload instance by name at the options'
// size, reporting unknown names and bad sizes as an error the experiment
// can propagate.
func (o Options) instance(name string) (workloads.Workload, error) {
	return workloads.New(name, o.AppSize, o.Small)
}

// policy builds the options' placement policy: the Policy spec when one
// was chosen, the paper's threshold policy otherwise. Policies carry
// state, so every run builds its own.
func (o Options) policy() (numa.Policy, error) {
	if o.Policy == "" {
		return policy.NewDefault(), nil
	}
	return policy.Parse(o.Policy)
}

// keepGoing reports whether sweeps should report partial results past
// failed runs.
func (o Options) keepGoing() bool { return o.KeepGoing || o.ReproDir != "" }

// spec builds the spec every run starts from: the options' machine,
// policy, workers, trace sink, chaos and robustness knobs (audit stride,
// stall limit, forensics, supervise's machine hook), under the
// affinity scheduler. The robustness knobs are all zero for default
// options, so unsupervised runs are bit-for-bit unchanged.
func (o Options) spec() (metrics.RunSpec, error) {
	pol, err := o.policy()
	if err != nil {
		return metrics.RunSpec{}, err
	}
	return metrics.RunSpec{
		Config: o.config(), Policy: pol, Workers: o.Workers, Sched: sched.Affinity,
		TraceSink: o.TraceSink, Chaos: o.Chaos,
		Audit: o.Audit, StallLimit: o.StallLimit, Forensics: o.ReproDir != "",
		OnMachine: o.onMachine,
	}, nil
}

// run builds the named workload and simulates it once under the
// options' supervision, label naming the unit in repro bundles. vary,
// when non-nil, adjusts the spec before the run starts; it is called
// afresh for every retry. The options must already carry their defaults.
func (o Options) run(label, app string, vary func(*metrics.RunSpec)) (metrics.RunResult, error) {
	var res metrics.RunResult
	err := o.supervise(label, func(o Options) error {
		w, err := o.instance(app)
		if err != nil {
			return err
		}
		res, err = o.simulate(vary, w)
		return err
	})
	return res, err
}

// simulate runs the workloads once on a fresh system built from the
// options' spec, adjusted by vary when it is non-nil. It holds one of
// the options' slots from before the machine is built until the result
// is read, and keeps nothing of the system, so the machine is garbage
// when it returns. The options must already carry their defaults.
func (o Options) simulate(vary func(*metrics.RunSpec), ws ...workloads.Workload) (metrics.RunResult, error) {
	o.slots <- struct{}{}
	defer func() { <-o.slots }()
	spec, err := o.spec()
	if err != nil {
		return metrics.RunResult{}, err
	}
	if vary != nil {
		vary(&spec)
	}
	return metrics.Run(spec, ws...)
}

// RunApp runs the named application once, the way every experiment run
// is made: the options' machine, policy, workers, trace sink, chaos and
// supervision, under the affinity scheduler. vary, when non-nil, adjusts
// the spec before the run starts; it is called afresh for every retry,
// and a hook it installs in OnMachine must call the one it replaces.
func (o Options) RunApp(app string, vary func(*metrics.RunSpec)) (metrics.RunResult, error) {
	return o.withDefaults().run(app, app, vary)
}

// Evaluate makes the paper's three instrumented runs of app (§3.1) and
// derives its model parameters: T_numa under the paper's threshold policy
// whatever opts.Policy says, T_global with all writable data in global
// memory, and T_local with one thread on a one-processor machine. The
// runs share the options' pool inside the caller's supervision, if any,
// and each builds its own workload instance in its pool task, so a
// finished run's machine is garbage before a later run builds its own.
func Evaluate(opts Options, app string) (metrics.Eval, error) {
	opts = opts.withDefaults()
	opts.Policy = ""
	// The probe is never started: it reports a bad name or size before
	// any run begins and says which G/L ratio the model uses.
	probe, err := opts.instance(app)
	if err != nil {
		return metrics.Eval{}, err
	}
	varies := []func(*metrics.RunSpec){
		nil,
		func(s *metrics.RunSpec) { s.Policy = policy.AllGlobal{} },
		// T_local: "running the parallel applications with a single
		// thread on a single processor system, causing all data to be
		// placed in local memory" (§3.1).
		func(s *metrics.RunSpec) {
			s.Policy = policy.AllLocal{}
			s.Config.NProc = 1
			s.Workers = 1
		},
	}
	res := make([]metrics.RunResult, len(varies))
	err = opts.pool().Run(len(varies), func(i int) error {
		w, err := opts.instance(app)
		if err != nil {
			return err
		}
		res[i], err = opts.simulate(varies[i], w)
		return err
	})
	if err != nil {
		return metrics.Eval{}, err
	}
	topo, err := ace.SpecForConfig(opts.config())
	if err != nil {
		return metrics.Eval{}, err
	}
	return metrics.NewEval(topo, probe.FetchHeavy(), res[0], res[1], res[2]), nil
}

// fmtF renders a float with sensible precision for the tables. It is
// generic over named float64 types (sim.Ticks and plain float64 render
// identically), so adopting unit types cannot change table bytes.
func fmtF[F ~float64](v F, prec int) string {
	if math.IsNaN(float64(v)) {
		return "na"
	}
	return fmt.Sprintf("%.*f", prec, float64(v))
}

// partial runs n independent units on the options' pool and returns
// their rows in unit order. A failed unit aborts the sweep with its
// error unless the options keep going past failures; then failed(i, err)
// stands in for its row, so the rest of the table still renders.
func partial[R any](opts Options, n int, unit func(i int) (R, error), failed func(i int, err error) R) ([]R, error) {
	rows := make([]R, n)
	errs := opts.pool().RunAll(n, func(i int) error {
		var err error
		rows[i], err = unit(i)
		return err
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !opts.keepGoing() {
			return nil, err
		}
		rows[i] = failed(i, err)
	}
	return rows, nil
}

// failedRun names one failed unit of a partial result.
type failedRun struct {
	Unit, Err string
}

// renderFailures renders the per-run error summaries appended to a
// partial table; it is empty — and the table bytes untouched — when
// every run succeeded.
func renderFailures(fails []failedRun) string {
	if len(fails) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("failed runs:\n")
	for _, f := range fails {
		fmt.Fprintf(&b, "  %-12s %s\n", f.Unit, firstLine(f.Err))
	}
	return b.String()
}

// firstLine truncates multi-line error text (panic stacks) for tables.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// renderTable renders a fixed-width text table.
func renderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
