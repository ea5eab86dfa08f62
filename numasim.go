// Package numasim is a from-scratch reproduction of the system described
// in Bolosky, Fitzgerald and Scott, "Simple But Effective Techniques for
// NUMA Memory Management" (SOSP 1989): automatic page placement for
// two-level NUMA multiprocessors, implemented in the machine-dependent
// pmap layer of a Mach-like virtual memory system and evaluated on a
// simulated IBM ACE multiprocessor workstation.
//
// The package is a facade over the implementation packages:
//
//   - a deterministic virtual-time machine model of the ACE (processors,
//     local and global memories, measured reference latencies);
//   - a Mach-like VM system with the paper's pmap interface, including its
//     three NUMA extensions;
//   - the NUMA manager — the consistency protocol of the paper's Tables 1
//     and 2 — and pluggable NUMA policies (the move-threshold policy,
//     baselines, pragmas, pin reconsideration);
//   - a C-Threads-like runtime with an affinity scheduler;
//   - the paper's eight measured applications, an evaluation harness that
//     regenerates every table and figure, and a reference-trace facility
//     with false-sharing detection.
//
// Quick start:
//
//	sys, err := numasim.New() // default ACE, threshold policy, affinity scheduler
//	if err != nil {
//	    log.Fatal(err)
//	}
//	shared := sys.Runtime.Alloc("data", 4096)
//	err = sys.Runtime.Run(0, func(id int, c *numasim.Context) {
//	    c.Store32(shared+uint32(4*id), uint32(id))
//	})
//
// New takes functional options — WithConfig, WithPolicy, WithSched,
// WithLocalFrames (finite local memory), WithChaos (seeded fault
// injection), WithTraceSink (structured event tracing).
//
// See the examples directory and cmd/tables for complete programs.
package numasim

import (
	"numasim/internal/ace"
	"numasim/internal/cthreads"
	"numasim/internal/harness"
	"numasim/internal/metrics"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sched"
	"numasim/internal/sim"
	"numasim/internal/trace"
	"numasim/internal/vm"
	"numasim/internal/workloads"
)

// Core machine and kernel types.
type (
	// Config describes an ACE machine instance.
	Config = ace.Config
	// CostModel gives the virtual-time cost of every charged operation.
	CostModel = ace.CostModel
	// Machine is an assembled ACE.
	Machine = ace.Machine
	// RefStats counts memory references by destination.
	RefStats = ace.RefStats
	// Kernel is the Mach-like VM system bound to one machine.
	Kernel = vm.Kernel
	// Task is an address space.
	Task = vm.Task
	// Context is a simulated thread's view of virtual memory.
	Context = vm.Context
	// Object is a Mach VM object (shareable memory container).
	Object = vm.Object
	// AccessError is the panic value of a simulated segmentation fault.
	AccessError = vm.AccessError
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Prot is a page protection.
	Prot = mmu.Prot
)

// NUMA management types.
type (
	// Page is the NUMA manager's record for one logical page.
	Page = numa.Page
	// PageState is a logical page's consistency state.
	PageState = numa.State
	// Location is a policy's placement answer.
	Location = numa.Location
	// Policy decides whether a page is placed in local or global memory.
	Policy = numa.Policy
	// Hint is an application placement pragma (§4.3).
	Hint = numa.Hint
	// NUMAStats counts protocol events.
	NUMAStats = numa.Stats
)

// Userland types.
type (
	// Runtime is a C-Threads program instance.
	Runtime = cthreads.Runtime
	// CThread is a forked C-thread.
	CThread = cthreads.Thread
	// SpinLock is a test-and-set lock in simulated shared memory.
	SpinLock = cthreads.SpinLock
	// Mutex is a blocking lock.
	Mutex = cthreads.Mutex
	// Cond is a condition variable.
	Cond = cthreads.Cond
	// Barrier makes n threads wait for each other.
	Barrier = cthreads.Barrier
	// WorkPile hands out unit-of-work indices.
	WorkPile = cthreads.WorkPile
	// SchedMode selects the scheduling discipline.
	SchedMode = sched.Mode
)

// Measurement types.
type (
	// Eval is the paper's three-run evaluation of one application.
	Eval = metrics.Eval
	// RunResult is the outcome of one instrumented run.
	RunResult = metrics.RunResult
	// Workload is one measured application.
	Workload = workloads.Workload
	// TraceCollector accumulates a reference trace.
	TraceCollector = trace.Collector
	// TraceSummary aggregates a reference trace.
	TraceSummary = trace.Summary
	// HarnessOptions configures the table/figure experiments.
	HarnessOptions = harness.Options
)

// Protections.
const (
	ProtNone      = mmu.ProtNone
	ProtRead      = mmu.ProtRead
	ProtWrite     = mmu.ProtWrite
	ProtReadWrite = mmu.ProtReadWrite
)

// Page states. RemotePlaced is the §4.4 extension state.
const (
	ReadOnly       = numa.ReadOnly
	LocalWritable  = numa.LocalWritable
	GlobalWritable = numa.GlobalWritable
	RemotePlaced   = numa.Remote
)

// Policy answers.
const (
	Local       = numa.Local
	Global      = numa.Global
	PlaceRemote = numa.PlaceRemote
)

// Placement pragmas (§4.3, §4.4).
const (
	HintNone         = numa.HintNone
	HintCacheable    = numa.HintCacheable
	HintNoncacheable = numa.HintNoncacheable
	HintRemote       = numa.HintRemote
)

// Scheduling disciplines (§4.7).
const (
	Affinity   = sched.Affinity
	NoAffinity = sched.NoAffinity
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultThreshold is the paper's default move limit (four).
const DefaultThreshold = policy.DefaultThreshold

// DefaultConfig returns a machine comparable to the paper's measurement
// configuration: 7 processors, 16 MB global, 8 MB local per processor.
func DefaultConfig() Config { return ace.DefaultConfig() }

// DefaultCostModel returns the paper's measured memory latencies and
// ROMP-plausible instruction costs.
func DefaultCostModel() CostModel { return ace.DefaultCostModel() }

// NewMachine builds a machine, validating the configuration.
func NewMachine(cfg Config) (*Machine, error) { return ace.NewMachine(cfg) }

// NewKernel builds a Mach-like kernel on machine with the given NUMA
// policy.
func NewKernel(m *Machine, pol Policy) *Kernel { return vm.NewKernel(m, pol) }

// NewRuntime builds a C-Threads runtime on kernel.
func NewRuntime(k *Kernel, mode SchedMode) *Runtime { return cthreads.New(k, mode) }

// NewBarrier creates a barrier for n threads.
func NewBarrier(n int) *Barrier { return cthreads.NewBarrier(n) }

// NewSpinLockAt places a lock word at an application-chosen address (the
// manual segregation tool of §4.2).
func NewSpinLockAt(va uint32) *SpinLock { return cthreads.NewSpinLockAt(va) }

// NewContext creates a memory context for a simulated thread (advanced
// use; Runtime.Run and Runtime.Fork create contexts for you).
func NewContext(k *Kernel, t *Task, th *SimThread, proc int) *Context {
	return vm.NewContext(k, t, th, proc)
}

// SimThread is a simulated thread of control.
type SimThread = sim.Thread

// System bundles a machine, kernel and runtime — the usual way to start.
type System struct {
	Machine *Machine
	Kernel  *Kernel
	Runtime *Runtime
}

// Policies.

// DefaultPolicy returns the paper's placement policy with its default
// threshold of four moves.
func DefaultPolicy() Policy { return policy.NewDefault() }

// ThresholdPolicy returns the paper's policy with a custom move limit.
func ThresholdPolicy(limit int) Policy { return policy.NewThreshold(limit) }

// NeverPinPolicy caches pages locally no matter how often they move.
func NeverPinPolicy() Policy { return policy.NeverPin() }

// AllGlobalPolicy places every writable page in global memory (the
// T_global baseline).
func AllGlobalPolicy() Policy { return policy.AllGlobal{} }

// AllLocalPolicy places every page in local memory (the T_local baseline).
func AllLocalPolicy() Policy { return policy.AllLocal{} }

// PragmaPolicy honours application placement pragmas, falling back to
// fallback (or the default policy when nil).
func PragmaPolicy(fallback Policy) Policy { return policy.NewPragma(fallback) }

// ReconsiderPolicy is the §5 extension that periodically reconsiders
// pinning decisions.
func ReconsiderPolicy(limit, period int) Policy { return policy.NewReconsider(limit, period) }

// FreezeDefrostPolicy is a PLATINUM-style time-based comparator policy:
// pages that moved recently freeze in global memory and defrost after a
// quiet period. Non-positive arguments select defaults.
func FreezeDefrostPolicy(freeze, defrost Time) Policy {
	return policy.NewFreezeDefrost(freeze, defrost)
}

// Workloads.

// AllWorkloads returns the paper's application mix at default (scaled)
// sizes, in Table 3 order.
func AllWorkloads() []Workload { return workloads.All() }

// WorkloadByName returns a named workload at its default size, matching
// the name in any case: the paper's "ParMult", ..., "PlyTrace", or
// "Primes2-untuned", "Syscaller", "Phased" or "Zipf".
func WorkloadByName(name string) (Workload, error) { return workloads.New(name, 0, false) }

// RunWorkload runs w on the runtime with n worker threads (n <= 0: one
// per processor) to completion, and verifies its results.
func RunWorkload(w Workload, rt *Runtime, n int) error { return workloads.Run(w, rt, n) }

// Measurement.

// Evaluate runs the paper's three-run comparison (T_numa under the
// paper's threshold policy, T_global, T_local) for the named application
// on the options' machine, and derives α, β and γ.
func Evaluate(opts HarnessOptions, app string) (Eval, error) { return harness.Evaluate(opts, app) }

// NewTraceCollector creates a reference-trace collector for the given page
// shift; install its Hook as Kernel.RefTrace.
func NewTraceCollector(pageShift uint, trackWords bool) *TraceCollector {
	return trace.New(pageShift, trackWords)
}

// Experiments (re-exported from the harness).

// Table3 regenerates the paper's Table 3.
func Table3(opts HarnessOptions) ([]harness.Table3Row, error) { return harness.Table3(opts) }

// RenderTable3 renders Table 3 with the paper's numbers alongside.
func RenderTable3(rows []harness.Table3Row) string { return harness.RenderTable3(rows) }

// Table4 regenerates the paper's Table 4.
func Table4(opts HarnessOptions) ([]harness.Table4Row, error) { return harness.Table4(opts) }

// RenderTable4 renders Table 4 with the paper's numbers alongside.
func RenderTable4(rows []harness.Table4Row) string { return harness.RenderTable4(rows) }

// ProtocolTable derives the paper's Table 1 (write=false) or Table 2
// (write=true) from the implementation.
func ProtocolTable(write bool) (string, error) { return harness.ProtocolTable(write) }

// Figure1 renders the ACE memory architecture.
func Figure1(opts HarnessOptions) (string, error) { return harness.Figure1(opts) }

// Figure2 renders the pmap layer structure.
func Figure2() string { return harness.Figure2() }

// FalseSharingExperiment reproduces the §4.2 Primes2 tuning experiment.
func FalseSharingExperiment(opts HarnessOptions) (harness.FalseSharingResult, error) {
	return harness.FalseSharing(opts)
}

// ThresholdSweep measures a workload under varying move limits (limit < 0
// selects never-pin).
func ThresholdSweep(opts HarnessOptions, app string, limits []int) ([]harness.SweepRow, error) {
	return harness.ThresholdSweep(opts, app, limits)
}

// MixRun executes several applications concurrently on one machine, each
// in its own address space, under the paper's policy.
func MixRun(opts HarnessOptions, apps []string) (harness.MixResult, error) {
	return harness.MixRun(opts, apps)
}

// PolicyCompare races the paper's threshold policy against reconsidering
// policies on a phase-changing workload.
func PolicyCompare(opts HarnessOptions) ([]harness.PolicyRow, error) {
	return harness.PolicyCompare(opts)
}

// PressureSweep measures one application at shrinking per-processor
// local-frame budgets (empty frames: the default budgets), reporting
// slowdown against the unconstrained baseline.
func PressureSweep(opts HarnessOptions, app string, frames []int) ([]harness.PressureRow, error) {
	return harness.PressureSweep(opts, app, frames)
}

// RenderPressure renders a pressure sweep as a plain-text table.
func RenderPressure(rows []harness.PressureRow) string { return harness.RenderPressure(rows) }

// Experiment is one registered harness experiment.
type Experiment = harness.Experiment

// LookupExperiment finds a harness experiment by name, case-insensitively
// ("table3", "pressuresweep", ...).
func LookupExperiment(name string) (Experiment, bool) { return harness.Lookup(name) }

// ExperimentNames lists the registered experiments, sorted.
func ExperimentNames() []string { return harness.Names() }
