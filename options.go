package numasim

import (
	"numasim/internal/chaos"
	"numasim/internal/cthreads"
	"numasim/internal/metrics"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/simtrace"
)

// ChaosConfig parameterizes the seeded fault-injection layer: transient
// local-allocation failures and delayed page moves, drawn from a PRNG
// advanced in virtual time so runs stay deterministic. The zero value
// injects nothing.
type ChaosConfig = chaos.Config

// TraceSink receives structured simulation events (see the simtrace
// package); attach one with WithTraceSink to record or count events.
type TraceSink = simtrace.Sink

// TraceListSink is a simple sink that collects events in order.
type TraceListSink = simtrace.ListSink

// Option configures New by adjusting the description of the system it
// builds.
type Option func(*metrics.RunSpec)

// WithConfig replaces the whole machine configuration (default:
// DefaultConfig). Compose with WithLocalFrames, which applies after it.
func WithConfig(cfg Config) Option {
	return func(s *metrics.RunSpec) { s.Config = cfg }
}

// WithPolicy selects the NUMA placement policy (default: the paper's
// threshold policy with its default move limit).
func WithPolicy(pol Policy) Option {
	return func(s *metrics.RunSpec) { s.Policy = pol }
}

// WithSched selects the scheduling discipline (default: Affinity).
func WithSched(mode SchedMode) Option {
	return func(s *metrics.RunSpec) { s.Sched = mode }
}

// WithLocalFrames bounds each processor's local memory to n page frames.
// The default is effectively unbounded (8 MB per processor); small values
// put the NUMA manager's reclaimer and global-fallback path to work.
func WithLocalFrames(n int) Option {
	return func(s *metrics.RunSpec) { s.Config.LocalFrames = n }
}

// WithChaos enables seeded fault injection. A fresh injector is built
// from cc for this system alone, so two systems with the same seed see
// the same fault schedule.
func WithChaos(cc ChaosConfig) Option {
	return func(s *metrics.RunSpec) { s.Chaos = cc }
}

// WithTraceSink attaches a structured-event sink to the machine before
// anything runs.
func WithTraceSink(sink TraceSink) Option {
	return func(s *metrics.RunSpec) { s.TraceSink = sink }
}

// WithAudit turns on the NUMA manager's online protocol auditor at the
// given sampling stride: 1 re-validates the directory invariants after
// every protocol action (what the tests use), larger strides sample for
// near-free checking on long runs, 0 leaves auditing off. A violation
// surfaces from Machine.Engine().Run() as an error wrapping a typed
// *ProtocolViolation that carries the page, its state, and the recent
// trace events.
func WithAudit(stride int) Option {
	return func(s *metrics.RunSpec) { s.Audit = stride }
}

// ProtocolViolation is a broken NUMA-protocol invariant detected by the
// online auditor or the protocol itself; recover it from a run error with
// errors.As.
type ProtocolViolation = numa.ProtocolViolationError

// New builds a complete system — machine, kernel, C-Threads runtime —
// from functional options, validating the configuration instead of
// panicking:
//
//	sys, err := numasim.New(
//	    numasim.WithPolicy(numasim.ThresholdPolicy(2)),
//	    numasim.WithLocalFrames(64),
//	)
//
// With no options it is the paper's measurement setup: the default ACE,
// the default threshold policy, the affinity scheduler.
func New(opts ...Option) (*System, error) {
	spec := metrics.RunSpec{Config: DefaultConfig(), Sched: Affinity}
	for _, opt := range opts {
		opt(&spec)
	}
	if spec.Policy == nil {
		spec.Policy = policy.NewDefault()
	}
	sys, err := metrics.Build(spec)
	if err != nil {
		return nil, err
	}
	return &System{
		Machine: sys.Machine, Kernel: sys.Kernel,
		Runtime: cthreads.NewShared(sys.Kernel, sys.Sched),
	}, nil
}
