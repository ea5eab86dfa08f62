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
	"errors"
	"fmt"
	"strings"

	"numasim/internal/ace"
	"numasim/internal/chaos"
	"numasim/internal/cthreads"
	"numasim/internal/numa"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
	"numasim/internal/vm"
	"numasim/internal/workloads"
)

// RunSpec describes one simulated system and the run made on it; Build
// assembles the system.
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

// Unwrap returns the underlying failure.
//
//numalint:api errors.As reaches it through an anonymous interface, as harness.extractForensics does for the typed causes
func (e *RunError) Unwrap() error { return e.Err }

// RunResult is the outcome of one instrumented run.
type RunResult struct {
	Workload string
	Policy   string
	NProc    int
	Workers  int
	// UserSec and SysSec are virtual seconds (sim.Ticks), the unit of
	// every rendered table.
	UserSec sim.Ticks
	SysSec  sim.Ticks
	Refs    ace.RefStats
	NUMA    numa.Stats
	VM      vm.Stats
	Faults  uint64
	// Links holds per-interconnect-link contention counters for topologies
	// with a bandwidth model; nil on uncontended machines (the ACE).
	Links []topology.LinkStats
	// Sched holds the scheduler's counters: spawns, the co-placement
	// channel's hint traffic, migrations and failovers.
	Sched sched.Stats
}

// System is one simulated system assembled from a RunSpec: the machine,
// its kernel, and the scheduler that every C-Threads runtime on the
// machine shares (cthreads.NewShared).
type System struct {
	Machine *ace.Machine
	Kernel  *vm.Kernel
	Sched   *sched.Scheduler

	spec RunSpec
	ring *simtrace.RingSink
}

// Build assembles the system spec describes; it is the one place a
// simulated machine, kernel and scheduler are put together. It validates
// the machine and chaos configuration, attaches the trace sink (teed with
// a forensic ring when forensics or auditing is on), applies the stall
// limit, the kernel flags, the auditor and chaos, shows the machine to
// OnMachine, builds the scheduler and starts the health driver — the only
// thread it spawns, so the workload's threads always follow it.
func Build(spec RunSpec) (*System, error) {
	if err := spec.Chaos.Validate(); err != nil {
		return nil, err
	}
	machine, err := ace.NewMachine(spec.Config)
	if err != nil {
		return nil, err
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
	if ring != nil {
		kernel.NUMA().EnableAudit(spec.Audit, ring)
	}
	if spec.Chaos.Enabled() {
		kernel.NUMA().SetChaos(chaos.New(spec.Chaos))
	}
	if spec.OnMachine != nil {
		spec.OnMachine(machine)
	}
	scheduler := sched.New(kernel, spec.Sched)
	if err := StartHealthDriver(machine, kernel.NUMA(), scheduler, spec.Chaos); err != nil {
		return nil, err
	}
	return &System{Machine: machine, Kernel: kernel, Sched: scheduler, spec: spec, ring: ring}, nil
}

// fail returns a failed run's error, wrapped in a *RunError carrying the
// forensic ring's contents and the rendered machine-state dump when the
// spec asked for forensics.
func (s *System) fail(workload string, err error) error {
	if !s.spec.Forensics {
		return err
	}
	re := &RunError{
		Workload: workload, Policy: s.spec.Policy.Name(), Err: err,
		Dump: s.Machine.Engine().DumpState().Render(),
	}
	if s.ring != nil {
		re.Events = s.ring.Events()
	}
	return re
}

// Run builds a fresh system per spec and runs the workloads on it
// concurrently, each in its own task with spec.Workers threads (0: one
// per processor), then verifies each. One workload is an instrumented
// run; several are an application mix, reported under their names joined
// by "+". The run's frames, past its first few, keep their bytes in one
// mapping of the machine's memory (mem.Memory.Map), which Run closes once
// it has read the results, on every path: a machine shown to OnMachine
// outlives the run with every frame reading zeros.
func Run(spec RunSpec, ws ...workloads.Workload) (RunResult, error) {
	if len(ws) == 0 {
		return RunResult{}, errors.New("metrics: no workload to run")
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name()
	}
	name := strings.Join(names, "+")
	sys, err := Build(spec)
	if err != nil {
		return RunResult{}, fmt.Errorf("metrics: %s: %w", name, err)
	}
	machine, kernel := sys.Machine, sys.Kernel
	memory := machine.Memory()
	memory.Map()
	defer memory.Close()
	workers := spec.Workers
	if workers <= 0 {
		workers = machine.NProc()
	}
	finishes := make([]func() error, len(ws))
	for i, w := range ws {
		finishes[i] = w.Start(cthreads.NewShared(kernel, sys.Sched), workers)
	}
	err = machine.Engine().Run()
	for i := 0; err == nil && i < len(finishes); i++ {
		err = finishes[i]()
	}
	if err != nil {
		return RunResult{}, sys.fail(name, fmt.Errorf("metrics: %s under %s: %w", name, spec.Policy.Name(), err))
	}
	return RunResult{
		Workload: name,
		Policy:   spec.Policy.Name(),
		NProc:    spec.Config.NProc,
		Workers:  spec.Workers,
		UserSec:  machine.Engine().TotalUserTime().Ticks(),
		SysSec:   machine.Engine().TotalSysTime().Ticks(),
		Refs:     machine.TotalRefs(),
		NUMA:     kernel.NUMA().Stats(),
		VM:       kernel.Stats(),
		Faults:   machine.TotalFaults(),
		Links:    machine.Topo().LinkStats(),
		Sched:    sys.Sched.Stats(),
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

// NewEval turns the paper's three instrumented runs of one workload —
// T_numa, T_global and T_local — into its evaluation. spec is the T_numa
// machine's topology, whose latencies give the G/L ratio; fetchHeavy
// selects the fetch-only ratio.
func NewEval(spec *topology.Spec, fetchHeavy bool, numaRun, globalRun, localRun RunResult) Eval {
	gl := spec.GOverL(0.45)
	if fetchHeavy {
		gl = spec.GOverL(0)
	}
	ev := Eval{
		Workload:  numaRun.Workload,
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
	return ev
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
