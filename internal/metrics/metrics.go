// Package metrics implements the paper's evaluation methodology (§3.1):
// the three instrumented runs (T_numa under the placement policy, T_global
// with all writable data in global memory, T_local single-threaded on a
// one-processor machine), and the model parameters derived from them —
//
//	α = (T_global − T_numa) / (T_global − T_local)          (eq. 4)
//	β = ((T_global − T_local)/T_local) · (L/(G−L))          (eq. 5)
//	γ = T_numa / T_local                                    (eq. 1)
//
// α resembles a cache hit ratio over references to writable data; β is the
// fraction of run time an all-local run would spend referencing writable
// data; γ is the user-time expansion factor.
//
// Because the simulator also counts true per-processor reference
// destinations, each evaluation additionally reports the measured local
// fraction as a cross-check on the timing-derived α — something the
// paper's hardware could not do ("Conventional memory-management systems
// provide no way to measure the relative frequencies of references from
// processors to pages", §4.4).
package metrics

import (
	"fmt"
	"sync"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/cthreads"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
	"numasim/internal/vm"
)

// Runner is the workload contract the evaluator needs; the workloads
// package's Workload satisfies it.
type Runner interface {
	Name() string
	FetchHeavy() bool
	Run(rt *cthreads.Runtime, nworkers int) error
}

// RunSpec describes one instrumented run.
type RunSpec struct {
	Config   ace.Config
	Policy   numa.Policy
	Workers  int
	Sched    sched.Mode
	UnixMast bool
	// NoReplication disables read replication (the replication ablation).
	NoReplication bool
	// TraceSink, when non-nil, is attached to the run's machine before the
	// workload starts. A sink shared across concurrent runs must be safe
	// for concurrent Emit (simtrace.CountingSink is).
	TraceSink simtrace.Sink
	// Chaos configures fault injection for this run. The zero value is
	// chaos off; when enabled, a fresh injector seeded from Chaos.Seed is
	// built for the run, so a spec is reusable across concurrent runs.
	Chaos chaos.Config
	// Audit enables the NUMA manager's online auditor at this sampling
	// stride: 1 audits after every protocol action, larger strides sample,
	// 0 leaves auditing off.
	Audit int
	// Forensics attaches a per-run forensic ring buffer and converts any
	// failure into a *RunError carrying the ring contents and a rendered
	// machine-state dump (the raw material of a repro bundle).
	Forensics bool
	// StallLimit overrides the engine's stall-watchdog threshold for this
	// run (0 keeps the engine default).
	StallLimit int
	// OnMachine, when non-nil, observes the freshly built machine before
	// the workload starts. The harness supervisor uses it to reach the
	// engine for wall-clock-timeout teardown.
	OnMachine func(*ace.Machine)
	// RefTrace, when non-nil, is installed as the kernel's reference-trace
	// hook (see vm.Kernel.RefTrace and the trace package's Collector).
	RefTrace func(proc int, va uint32, write bool)
}

// forensicRingCap is the per-run ring-buffer capacity used when Forensics
// or auditing is on: enough recent events to reconstruct the failing
// protocol episode without retaining the whole run.
const forensicRingCap = 256

// RunError wraps a failed instrumented run with the forensics gathered
// before teardown. It unwraps to the underlying failure, so errors.As
// still reaches typed causes such as numa.ProtocolViolationError or
// sim.StallError.
type RunError struct {
	Workload string
	Policy   string
	Err      error
	// Events is the forensic ring's contents at failure, oldest first.
	Events []simtrace.Event
	// Dump is the rendered machine-state dump (sim.StateDump.Render).
	Dump string
}

func (e *RunError) Error() string { return e.Err.Error() }
func (e *RunError) Unwrap() error { return e.Err }

// RunResult is the outcome of one instrumented run.
type RunResult struct {
	Workload string
	Policy   string
	NProc    int
	Workers  int
	// UserSec and SysSec are virtual seconds (sim.Ticks), the unit of
	// every rendered table.
	UserSec   sim.Ticks
	SysSec    sim.Ticks
	Refs      ace.RefStats
	NUMA      numa.Stats
	VM        vm.Stats
	Faults    uint64
	MMUEnters uint64
	// Links holds per-interconnect-link contention counters for topologies
	// with a bandwidth model; nil on uncontended machines (the ACE).
	Links []topology.LinkStats
	// Sched holds the scheduler's counters: spawns, the co-placement
	// channel's hint traffic, and per-node thread homes.
	Sched sched.Stats
}

// Run executes one workload on a freshly built machine per spec.
func Run(w Runner, spec RunSpec) (RunResult, error) {
	machine, err := ace.NewMachine(spec.Config)
	if err != nil {
		return RunResult{}, fmt.Errorf("metrics: %s: %w", w.Name(), err)
	}
	// Forensics and auditing share one per-run ring buffer; a shared
	// TraceSink keeps receiving everything through a tee.
	var ring *simtrace.RingSink
	sink := spec.TraceSink
	if spec.Forensics || spec.Audit > 0 {
		ring = simtrace.NewRingSink(forensicRingCap)
		if sink != nil {
			sink = simtrace.Tee(sink, ring)
		} else {
			sink = ring
		}
	}
	if sink != nil {
		machine.AttachSink(sink)
	}
	if spec.StallLimit != 0 {
		machine.Engine().StallLimit = spec.StallLimit
	}
	kernel := vm.NewKernel(machine, spec.Policy)
	kernel.UnixMaster = spec.UnixMast
	kernel.RefTrace = spec.RefTrace
	if spec.NoReplication {
		kernel.NUMA().SetReplication(false)
	}
	if spec.Audit > 0 || ring != nil {
		kernel.NUMA().EnableAudit(spec.Audit, ring)
	}
	if spec.Chaos.Enabled() {
		kernel.NUMA().SetChaos(chaos.New(spec.Chaos))
	}
	if spec.OnMachine != nil {
		spec.OnMachine(machine)
	}
	rt := cthreads.New(kernel, spec.Sched)
	if spec.Chaos.HealthEnabled() {
		if err := StartHealthDriver(machine, kernel.NUMA(), rt.Scheduler(), spec.Chaos); err != nil {
			return RunResult{}, fmt.Errorf("metrics: %s: %w", w.Name(), err)
		}
	}
	if err := w.Run(rt, spec.Workers); err != nil {
		err = fmt.Errorf("metrics: %s under %s: %w", w.Name(), spec.Policy.Name(), err)
		if spec.Forensics {
			re := &RunError{
				Workload: w.Name(), Policy: spec.Policy.Name(), Err: err,
				Dump: machine.Engine().DumpState().Render(),
			}
			if ring != nil {
				re.Events = ring.Events()
			}
			return RunResult{}, re
		}
		return RunResult{}, err
	}
	var enters uint64
	for i := 0; i < machine.NProc(); i++ {
		enters += machine.MMU(i).Stats().Enters
	}
	return RunResult{
		Workload:  w.Name(),
		Policy:    spec.Policy.Name(),
		NProc:     spec.Config.NProc,
		Workers:   spec.Workers,
		UserSec:   machine.Engine().TotalUserTime().Ticks(),
		SysSec:    machine.Engine().TotalSysTime().Ticks(),
		Refs:      machine.TotalRefs(),
		NUMA:      kernel.NUMA().Stats(),
		VM:        kernel.Stats(),
		Faults:    machine.TotalFaults(),
		MMUEnters: enters,
		Links:     machine.Topo().LinkStats(),
		Sched:     rt.Scheduler().Stats(),
	}, nil
}

// Eval is the paper's per-application evaluation: the three timing runs
// and the derived model parameters.
type Eval struct {
	Workload string
	// Total user times in virtual seconds (sim.Ticks), §3.1.
	Tglobal, Tnuma, Tlocal sim.Ticks
	// Model parameters (dimensionless).
	Alpha, Beta, Gamma float64
	// GOverL is the G/L ratio used in the equations: the fetch-only ratio
	// (≈2.3) for fetch-heavy applications, the mixed ratio (≈2.0)
	// otherwise, per §3.2 footnote 3.
	GOverL float64
	// System times for the Table 4 overhead analysis, §3.3.
	Snuma, Sglobal, DeltaS sim.Ticks
	// MeasuredLocalFrac is the true fraction of references that hit local
	// memory in the T_numa run (simulator cross-check; not in the paper).
	MeasuredLocalFrac float64
	// Detailed per-run results.
	NumaRun, GlobalRun, LocalRun RunResult
}

// Evaluator runs the paper's three-way comparison for workloads.
type Evaluator struct {
	// Config is the machine used for the T_numa and T_global runs. The
	// T_local run uses a single-processor variant of the same machine.
	Config ace.Config
	// Workers is the number of worker threads for the parallel runs
	// (default: one per processor).
	Workers int
	// Threshold is the move limit for the placement policy (default 4).
	Threshold int
	// Sched selects the scheduling discipline (default affinity).
	Sched sched.Mode
	// Parallelism bounds how many of the three instrumented runs execute
	// concurrently on real OS threads (<=1: sequential). Each run is a
	// self-contained deterministic simulation on its own machine, so the
	// measured results are bit-identical regardless of this setting.
	Parallelism int
	// TraceSink, when non-nil, is attached to every run's machine. The
	// three runs may execute concurrently, so the sink must be safe for
	// concurrent Emit (simtrace.CountingSink is).
	TraceSink simtrace.Sink
	// Chaos configures fault injection. Each instrumented run gets its own
	// injector seeded from Chaos.Seed, so results stay byte-identical at
	// every Parallelism setting.
	Chaos chaos.Config
	// Audit, Forensics and StallLimit apply to every instrumented run; see
	// the RunSpec fields of the same names.
	Audit      int
	Forensics  bool
	StallLimit int
	// OnMachine observes each run's machine as it is built; with
	// Parallelism > 1 it may be called concurrently, so it must be safe
	// for concurrent use.
	OnMachine func(*ace.Machine)
}

// NewEvaluator returns an evaluator for the paper's measurement setup:
// seven processors, the default policy.
func NewEvaluator() *Evaluator {
	return &Evaluator{Config: ace.DefaultConfig(), Threshold: policy.DefaultThreshold}
}

// Evaluate measures one workload: fresh is a factory returning a new
// instance of the same workload for each of the three runs. A factory
// error aborts the evaluation before any run starts.
func (e *Evaluator) Evaluate(fresh func() (Runner, error)) (Eval, error) {
	cfg := e.Config
	workers := e.Workers
	if workers <= 0 {
		workers = cfg.NProc
	}
	thr := e.Threshold
	if thr == 0 {
		thr = policy.DefaultThreshold
	}

	// T_local: "running the parallel applications with a single thread on
	// a single processor system, causing all data to be placed in local
	// memory" (§3.1).
	localCfg := cfg
	localCfg.NProc = 1

	// The three instrumented runs are independent simulations on separate
	// machines; fan them out. The workload instances are created serially
	// (factories need not be concurrency-safe), only the runs overlap.
	spec := func(cfg ace.Config, pol numa.Policy, workers int) RunSpec {
		return RunSpec{
			Config: cfg, Policy: pol, Workers: workers, Sched: e.Sched,
			TraceSink: e.TraceSink, Chaos: e.Chaos,
			Audit: e.Audit, Forensics: e.Forensics, StallLimit: e.StallLimit,
			OnMachine: e.OnMachine,
		}
	}
	wNuma, err := fresh()
	if err != nil {
		return Eval{}, err
	}
	wGlobal, err := fresh()
	if err != nil {
		return Eval{}, err
	}
	wLocal, err := fresh()
	if err != nil {
		return Eval{}, err
	}
	runs := []struct {
		w    Runner
		spec RunSpec
	}{
		{wNuma, spec(cfg, policy.NewThreshold(thr), workers)},
		{wGlobal, spec(cfg, policy.AllGlobal{}, workers)},
		{wLocal, spec(localCfg, policy.AllLocal{}, 1)},
	}
	var results [3]RunResult
	var errs [3]error
	if e.Parallelism > 1 {
		sem := make(chan struct{}, e.Parallelism)
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				results[i], errs[i] = Run(runs[i].w, runs[i].spec)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range runs {
			results[i], errs[i] = Run(runs[i].w, runs[i].spec)
		}
	}
	for _, err := range errs {
		if err != nil {
			return Eval{}, err
		}
	}
	numaRun, globalRun, localRun := results[0], results[1], results[2]

	// Bind a copy of the cost model to the run's topology so the G/L ratio
	// reflects the machine actually simulated (the ACE binding reproduces
	// the published constants exactly).
	bc := cfg.Cost
	if spec, err := ace.SpecForConfig(cfg); err == nil {
		bc.Bind(spec)
	}
	gl := bc.GOverL(0.45)
	if wNuma.FetchHeavy() {
		gl = bc.GOverL(0)
	}
	ev := Eval{
		Workload:  wNuma.Name(),
		Tglobal:   globalRun.UserSec,
		Tnuma:     numaRun.UserSec,
		Tlocal:    localRun.UserSec,
		GOverL:    gl,
		Snuma:     numaRun.SysSec,
		Sglobal:   globalRun.SysSec,
		DeltaS:    numaRun.SysSec - globalRun.SysSec,
		NumaRun:   numaRun,
		GlobalRun: globalRun,
		LocalRun:  localRun,
	}
	ev.MeasuredLocalFrac = numaRun.Refs.LocalFraction()
	ev.Alpha, ev.Beta, ev.Gamma = Derive(ev.Tglobal, ev.Tnuma, ev.Tlocal, gl)
	return ev, nil
}

// Derive computes α, β and γ from the three run times per equations (1),
// (4) and (5). When T_global and T_local coincide (β = 0), α is undefined;
// it is reported as NaN-free 0 with β 0, matching the paper's "na" entry
// for ParMult.
func Derive(tGlobal, tNuma, tLocal sim.Ticks, gOverL float64) (alpha, beta, gamma float64) {
	gamma = float64(tNuma / tLocal)
	denom := tGlobal - tLocal
	if denom <= 0 {
		return 0, 0, gamma
	}
	alpha = float64((tGlobal - tNuma) / denom)
	beta = float64(denom/tLocal) * (1 / (gOverL - 1))
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return alpha, beta, gamma
}

// ModelPredictTnuma applies equation (2): the predicted T_numa for given
// α, β and T_local.
func ModelPredictTnuma(tLocal sim.Ticks, alpha, beta, gOverL float64) sim.Ticks {
	return sim.Ticks(float64(tLocal) * ((1 - beta) + beta*(alpha+(1-alpha)*gOverL)))
}
